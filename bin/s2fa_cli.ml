(* The s2fa command-line tool.

     s2fa list
     s2fa compile  (-w KERNEL | -f FILE) [--design area|perf|structured]
     s2fa echo     (-w KERNEL | -f FILE)    (normalized MiniScala)
     s2fa bytecode (-w KERNEL | -f FILE)    (JVM disassembly)
     s2fa dse      (-w KERNEL | -f FILE) [--mode s2fa|vanilla] [--seed N]
                   [--minutes M] [--shared-db] [--trace FILE]
                   [--faults SPEC] [--checkpoint FILE] [--ck-every M]
     s2fa resume   FILE                     (recover a --checkpoint snapshot)
     s2fa trace    FILE                     (replay a --trace JSONL file)
     s2fa cache    -w KERNEL [--seed N] [--minutes M]  (result-DB stats)
     s2fa report   -w KERNEL [--seed N]     (Table-2-style row)
     s2fa speedup  -w KERNEL [--tasks N]    (Fig-4-style row)
     s2fa verify   (-w KERNEL | --all) [--symbolic] [--chains N] [--seed N]
                   [--tasks N]              (prove/refute Merlin rewrites)
     s2fa fuzz     [--seed N] [--count N] [--coverage] [--no-shrink]
                   [--out DIR]              (differential fuzzing)
     s2fa serve    [--apps SPEC] [--policy P] [--devices N] [--seed N]
                   [--horizon S] [--faults SPEC] [--trace FILE]
                   [--metrics FILE]         (the report as Prometheus text)
                   [--slo-ms MS] [--hang-factor F] [--hedge] [--breaker]
                   [--checkpoint FILE] [--ck-every-s S]
     s2fa federate [--apps SPEC] [--clusters SPEC] [--regions SPEC]
                   [--route P] [--rtt-ms MS] [--autoscale]
                   [--retune-slo-ms MS] [--trace FILE]
                   (geo-sharded multi-cluster serving)
     s2fa chaos    [--seeds N] [--from SEED] [--fed]
                   (seeded fault/SLO campaigns)
     s2fa prof     FILE [--top N]           (replay a --profile span log)

   dse, verify, fuzz, serve and federate also take --profile FILE: a
   hierarchical span log of the run (JSONL + FILE.folded flamegraph
   stacks), off by default and observer-effect-free when enabled.

   Everything runs against the simulated F1 instance; see DESIGN.md. *)

module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module Blaze = S2fa_blaze.Blaze
module Driver = S2fa_dse.Driver
module Seed = S2fa_dse.Seed
module E = S2fa_hls.Estimate
module Resultdb = S2fa_tuner.Resultdb
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry
module Trace = S2fa_telemetry.Trace
module Fault = S2fa_fault.Fault
module Fuzz = S2fa_fuzz.Fuzz
module Sym = S2fa_sym.Sym
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax
module Cinterp = S2fa_hlsc.Cinterp
module Dspace = S2fa_dse.Dspace
module Space = S2fa_tuner.Space
module Fleet = S2fa_fleet.Fleet
module Fed = S2fa_federation.Federation
module Traffic = S2fa_workloads.Traffic
module Chaos = S2fa_workloads.Chaos
module Obs = S2fa_obs.Obs
module Checkpoint = S2fa_telemetry.Checkpoint
open Cmdliner

(* ---------- values ----------

   Every structured flag value has one parser: a converter below. The
   same converter writes the value into checkpoint meta (its printer)
   and decodes it on `resume` (its parser). A value a converter refuses
   is a usage error (exit 124) naming the flag. A converter checks only
   what no library refuses before the run starts: a value Fleet or
   Federation reject up front (`--devices 0`, `--hang-factor 0`,
   `--slo-ms nan`) exits 1 with the library's message instead. The one
   exception is `--batch` and `--queue-cap`: they set every tenant's
   value, which the fleet refuses per app, so their converter refuses a
   count below 1 itself and names the flag or checkpoint key. *)

(* A parser that raises [Failure], or a library's [Invalid_argument],
   as a converter's parser. *)
let parse_with f s =
  match f s with
  | v -> Ok v
  | exception (Failure m | Invalid_argument m) -> Error (`Msg m)

let pp_as to_string ppf v = Format.pp_print_string ppf (to_string v)

(* A finite number of [units]. Horizons, intervals and time budgets
   are [`Positive]: at 0 or below, or at nan, a run never starts, never
   ends or finds nothing, and at inf it never ends. *)
let finite sign units =
  let word, ok =
    match sign with
    | `Positive -> ("positive ", fun f -> f > 0.0)
    | `Any -> ("", fun _ -> true)
  in
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && ok f -> Ok f
    | _ ->
      Error
        (`Msg (Printf.sprintf "%S is not a finite %snumber (%s)" s word units))
  in
  Arg.conv (parse, Format.pp_print_float)

let minutes = finite `Positive "minutes"
let seconds = finite `Positive "seconds"

(* Task, kernel and campaign counts below 1 leave a run nothing to do
   or ask for an array of negative size; a negative config or hotspot
   count would silently read as 0. *)
let count min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s min))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A tenant's batch size and queue capacity (--batch, --queue-cap). *)
let tenant_count = count 1

(* Output files (--trace, --profile, --metrics, --checkpoint): a path
   that names a directory, or whose directory does not exist, fails only
   when the file is opened — for --metrics and --profile, after the
   whole run — so it is a usage error (exit 124) naming the flag. *)
let output_file =
  let parse s =
    let dir = Filename.dirname s in
    if s = "" then Error (`Msg "expected a file path, got \"\"")
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (Printf.sprintf "%S is a directory, not a file" s))
    else if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "directory %S of %S does not exist" dir s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

(* --profile FILE also writes FILE.folded. *)
let profile_file =
  let check = Arg.conv_parser output_file in
  let parse s =
    match check s with
    | Ok _ -> Result.map (fun _ -> s) (check (s ^ ".folded"))
    | e -> e
  in
  Arg.conv (parse, Format.pp_print_string)

let workload_named name =
  match W.find name with
  | Some w -> w
  | None -> failwith (Printf.sprintf "unknown kernel %s; try `s2fa list`" name)

let workload = Arg.conv (parse_with workload_named, pp_as (fun w -> w.W.w_name))
let source_file = Arg.non_dir_file

(* One of [named]'s names, matched exactly. Unlike Arg.enum it takes no
   prefix and never compares values structurally (designs are
   functions). *)
let choice what named =
  let parse s =
    match List.assoc_opt s named with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown %s %s (want %s)" what s
              (String.concat "|" (List.map fst named))))
  in
  let name v = fst (List.find (fun (_, v') -> v' == v) named) in
  Arg.conv (parse, pp_as name)

let policy =
  choice "policy"
    (List.map (fun p -> (Fleet.policy_name p, p)) Fleet.all_policies)

let route =
  choice "route" (List.map (fun r -> (Fed.route_name r, r)) Fed.all_routes)

let mode : [ `S2fa | `Vanilla ] Arg.conv =
  choice "mode" [ ("s2fa", `S2fa); ("vanilla", `Vanilla) ]

let design =
  choice "design"
    [ ("area", Seed.area_seed);
      ("perf", Seed.performance_seed);
      ("structured", Seed.structured_seed) ]

let faults =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Fault.parse_spec s)),
      pp_as Fault.spec_string )

(* Comma-separated NAME[:FIELD[:FIELD]] items (--apps, --clusters,
   --regions). Blank items are skipped, and a value with no item is
   refused. [make name f1 f2] builds one item from the fields present,
   leaving the rest to the library constructor's defaults; whatever it
   refuses names the item. The value keeps its text, which checkpoint
   meta records verbatim. *)
let items form fields make =
  let item text =
    match String.split_on_char ':' text with
    | name :: rest when List.length rest <= fields -> (
      try make name (List.nth_opt rest 0) (List.nth_opt rest 1)
      with Failure m | Invalid_argument m ->
        failwith (Printf.sprintf "bad item %S: %s" text m))
    | _ -> failwith (Printf.sprintf "bad item %S (want %s)" text form)
  in
  let parse s =
    match
      List.filter (( <> ) "")
        (List.map String.trim (String.split_on_char ',' s))
    with
    | [] -> failwith (Printf.sprintf "no %s item in %S" form s)
    | texts -> (s, List.map item texts)
  in
  Arg.conv (parse_with parse, pp_as fst)

(* One field of an item, read by cmdliner's own number parsers. *)
let field conv v =
  match Arg.conv_parser conv v with Ok x -> x | Error (`Msg m) -> failwith m

(* Tenants carry Traffic.tenant's batch and queue capacity; `serve`
   sets both from its own flags. *)
let apps =
  items "NAME[:RATE[:WEIGHT]]" 2 (fun name rate weight ->
      Traffic.tenant
        ?rate:(Option.map (field Arg.float) rate)
        ?weight:(Option.map (field Arg.float) weight)
        (workload_named name))

(* Clusters carry no RTT; `federate` adds it from --rtt-ms. *)
let clusters =
  items "NAME[:DEVICES[:WEIGHT]]" 2 (fun name devices weight ->
      Fed.cluster
        ?devices:(Option.map (field Arg.int) devices)
        ?weight:(Option.map (field Arg.float) weight)
        name)

(* Request ids hold the region index in their high bits, so at most
   [Traffic.max_regions] regions keep them exact in a trace. *)
let regions =
  let conv =
    items "NAME[:SCALE]" 1 (fun name scale _ ->
        Traffic.region ?scale:(Option.map (field Arg.float) scale) name)
  in
  let parse s =
    Result.bind (Arg.conv_parser conv s) @@ fun ((_, rs) as v) ->
    let n = List.length rs in
    if n <= Traffic.max_regions then Ok v
    else
      Error
        (`Msg
           (Printf.sprintf "%d regions, at most %d" n Traffic.max_regions))
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* ---------- shared flags ---------- *)

let workload_arg =
  let doc = "Built-in kernel name (see `s2fa list`)." in
  Arg.(value & opt (some workload) None & info [ "w"; "workload" ] ~doc)

let file_arg =
  let doc = "MiniScala source file with an Accelerator class." in
  Arg.(value & opt (some source_file) None & info [ "f"; "file" ] ~doc)

let seed_arg =
  let doc = "Random seed for the DSE." in
  Arg.(value & opt int 7 & info [ "seed" ] ~doc)

let horizon_arg default =
  let doc = "Arrival horizon in virtual seconds; finite and positive." in
  Arg.(value & opt seconds default & info [ "horizon" ] ~doc)

let minutes_arg =
  let doc = "Simulated time budget in minutes; finite and positive." in
  Arg.(value & opt minutes 240.0 & info [ "minutes" ] ~doc)

let faults_arg doc =
  Arg.(value & opt (some faults) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let trace_arg doc =
  Arg.(
    value & opt (some output_file) None & info [ "trace" ] ~docv:"FILE" ~doc)

let checkpoint_arg doc =
  Arg.(
    value
    & opt (some output_file) None
    & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let slo_ms_arg doc =
  Arg.(value & opt (some float) None & info [ "slo-ms" ] ~docv:"MS" ~doc)

(* A flag's default, written as it would be typed. *)
let default conv text = Result.get_ok (Arg.conv_parser conv text)

let read_text path = In_channel.with_open_bin path In_channel.input_all

(* The kernel -w names, or else the one -f's source compiles to; a
   source the compiler rejects names the file. *)
let compiled_of ~workload ~file () =
  match (workload, file) with
  | Some w, _ -> (Some w, W.compile w)
  | None, Some path -> (
    match S2fa.compile (read_text path) with
    | c -> (None, c)
    | exception S2fa.Error m ->
      Printf.eprintf "%s: %s\n" path m;
      exit 1)
  | None, None ->
    Printf.eprintf "one of -w or -f is required\n";
    exit 1

let log_level =
  choice "level"
    (List.map
       (fun l -> (Logs.level_to_string l, l))
       Logs.[ None; Some App; Some Error; Some Warning; Some Info; Some Debug ])

(* --trace FILE plumbing: a JSONL channel sink, plus a human-readable
   logs sink when S2FA_LOGS names a level ("debug", "info", ...). Each
   event is logged at its kind's level (Telemetry.log_level) and the
   named level is the most verbose one printed, all of them on stderr,
   so stdout stays the report. "quiet" adds none, and a word that is no
   level is a usage error (exit 124) before the file is opened. *)
let make_tracer path =
  let logs =
    match Sys.getenv_opt "S2FA_LOGS" with
    | None | Some "" -> []
    | Some word -> (
      match Arg.conv_parser log_level word with
      | Error (`Msg m) ->
        Printf.eprintf "s2fa: environment variable S2FA_LOGS: %s\n" m;
        exit 124
      | Ok None -> []
      | Ok (Some level) ->
        Logs.set_reporter
          (Logs.format_reporter ~app:Format.err_formatter
             ~dst:Format.err_formatter ());
        Logs.Src.set_level Telemetry.log_src (Some level);
        [ Telemetry.logs_sink () ])
  in
  let oc = open_out path in
  (Telemetry.create ~sinks:(logs @ [ Telemetry.channel_sink oc ]) (), oc)

(* --profile FILE plumbing: install an ambient span profiler around the
   command body and persist the completed spans on the way out — both as
   JSONL (inspect with `s2fa prof FILE`) and as a folded-stack file
   (FILE.folded, for flamegraph.pl / speedscope). Host wall/alloc fields
   are serialized only when S2FA_PROFILE_HOST asks for them, so the
   default log is byte-reproducible under a fixed seed. The writer also
   runs from at_exit because several commands exit non-zero mid-body
   (verify's refutations, fuzz's failures). *)
let profile_arg =
  let doc =
    "Write a span profile of the run: FILE gets one JSON span per line \
     (deterministic virtual-clock stamps; set S2FA_PROFILE_HOST=1 to add \
     host wall/alloc fields) and FILE.folded a folded-stack file for \
     flamegraph tools. Inspect with `s2fa prof FILE`."
  in
  Arg.(
    value & opt (some profile_file) None & info [ "profile" ] ~docv:"FILE" ~doc)

let with_profile path f =
  match path with
  | None -> f ()
  | Some path ->
    let p = Obs.Profiler.create () in
    let written = ref false in
    let finish () =
      if not !written then begin
        written := true;
        let spans = Obs.Profiler.spans p in
        let oc = open_out path in
        Obs.write_jsonl ~host:(Obs.host_requested ()) oc spans;
        close_out oc;
        let oc = open_out (path ^ ".folded") in
        Obs.write_folded oc spans;
        close_out oc;
        Printf.printf "# profile: %d spans -> %s (+ %s.folded)\n"
          (List.length spans) path path
      end
    in
    at_exit finish;
    let r = Obs.with_profiler p f in
    finish ();
    r

(* A reader's [Error] (already naming the file and line) exits 1. *)
let ok_or_exit = function
  | Ok v -> v
  | Error m ->
    prerr_endline m;
    exit 1

(* A serving configuration the fleet rejects exits 1 with the fleet's
   own message. *)
let fleet_or_exit f =
  try f ()
  with Fleet.Fleet_error m ->
    prerr_endline m;
    exit 1

(* ---------- checkpoint meta ----------

   A run's configuration is written to checkpoint meta with the printer
   of each value's converter, and read back on `resume` with its parser.
   A value the parser refuses, or a key the writer always emits that is
   missing, names the file and the key and exits 1. *)

let put conv k v = (k, Format.asprintf "%a" (Arg.conv_printer conv) v)
let put_opt conv k = function Some v -> [ put conv k v ] | None -> []

let meta_error file k m =
  Printf.eprintf "%s: meta %S: %s\n" file k m;
  exit 1

let get_opt file meta conv k =
  Option.map
    (fun v ->
      match Arg.conv_parser conv v with
      | Ok x -> x
      | Error (`Msg m) -> meta_error file k m)
    (List.assoc_opt k meta)

let get file meta conv k =
  match get_opt file meta conv k with
  | Some x -> x
  | None -> meta_error file k "missing"

(* Everything that defines a DSE run; `dse` builds it from its flags
   and `resume` from a DSE checkpoint. *)
type dse_cfg = {
  ds_workload : W.t option;
  ds_file : string option;
  ds_seed : int;
  ds_minutes : float;
  ds_shared_db : bool;
  ds_faults : Fault.spec option;
}

let dse_meta c =
  put_opt workload "workload" c.ds_workload
  @ put_opt source_file "file" c.ds_file
  @ [ put Arg.int "seed" c.ds_seed;
      put minutes "minutes" c.ds_minutes;
      put Arg.bool "shared_db" c.ds_shared_db ]
  @ put_opt faults "faults" c.ds_faults

(* A checkpoint names its kernel by "workload", "file" or both (the
   workload wins, as on the command line). *)
let dse_of_meta file meta =
  let get c k = get file meta c k and get_opt c k = get_opt file meta c k in
  let ds_file = get_opt source_file "file" in
  { ds_workload =
      (if ds_file = None then Some (get workload "workload")
       else get_opt workload "workload");
    ds_file;
    ds_seed = get Arg.int "seed";
    ds_minutes = get minutes "minutes";
    ds_shared_db = get Arg.bool "shared_db";
    ds_faults = get_opt faults "faults" }

(* The kernel, RNG, result DB, fault injector and S2FA options of a DSE
   configuration. *)
let dse_run c =
  let _, compiled = compiled_of ~workload:c.ds_workload ~file:c.ds_file () in
  let rng = Rng.create c.ds_seed in
  let db = if c.ds_shared_db then Some (Resultdb.create ()) else None in
  let faults = Option.map (Fault.create ~seed:c.ds_seed) c.ds_faults in
  let opts =
    { Driver.default_s2fa_opts with Driver.so_time_limit = c.ds_minutes }
  in
  (compiled, rng, db, faults, opts)

(* Everything that defines a fleet serve; `serve` builds it from its
   flags and `resume` from a fleet checkpoint. *)
type serve_cfg = {
  sv_apps : string * Traffic.tenant list;
  sv_policy : Fleet.policy;
  sv_devices : int;
  sv_seed : int;
  sv_horizon : float;
  sv_batch : int;
  sv_queue_cap : int;
  sv_faults : Fault.spec option;
  sv_slo_ms : float option;
  sv_hang_factor : float option;
  sv_hedge : bool;
  sv_breaker : Fleet.breaker_cfg option;
}

let serve_meta c =
  [ put apps "apps" c.sv_apps;
    put policy "policy" c.sv_policy;
    put Arg.int "devices" c.sv_devices;
    put Arg.int "seed" c.sv_seed;
    put seconds "horizon" c.sv_horizon;
    put tenant_count "batch" c.sv_batch;
    put tenant_count "queue_cap" c.sv_queue_cap ]
  @ put_opt faults "faults" c.sv_faults
  @ put_opt Arg.float "slo_ms" c.sv_slo_ms
  @ put_opt Arg.float "hang_factor" c.sv_hang_factor
  @ put_opt Arg.bool "hedge" (if c.sv_hedge then Some true else None)
  @ (match c.sv_breaker with
    | None -> []
    | Some b ->
      [ put Arg.bool "breaker" true;
        put Arg.int "breaker_failures" b.Fleet.bk_failures;
        put Arg.float "breaker_cooldown_s" b.Fleet.bk_cooldown_s;
        put Arg.int "breaker_probes" b.Fleet.bk_probes ])

let serve_of_meta file meta =
  let get c k = get file meta c k and get_opt c k = get_opt file meta c k in
  let flag k = get_opt Arg.bool k = Some true in
  (* A value the fleet refuses before a serve starts names the file and
     the key, as one the converter refuses does: [opts set conv] also
     runs [Fleet.check_opts] on the default options with the value set. *)
  let opts set conv =
    let parse s =
      Result.bind (Arg.conv_parser conv s) @@ fun v ->
      match Fleet.check_opts (set Fleet.default_opts v) with
      | () -> Ok v
      | exception Fleet.Fleet_error m -> Error (`Msg m)
    in
    Arg.conv (parse, Arg.conv_printer conv)
  in
  let slo set = opts (fun o v -> { o with Fleet.o_slo = set Fleet.no_slo v }) in
  let breaker set =
    slo (fun s v ->
        { s with Fleet.sl_breaker = Some (set Fleet.default_breaker v) })
  in
  { sv_apps = get apps "apps";
    sv_policy = get policy "policy";
    sv_devices =
      get (opts (fun o d -> { o with Fleet.o_devices = d }) Arg.int) "devices";
    sv_seed = get Arg.int "seed";
    sv_horizon = get seconds "horizon";
    sv_batch = get tenant_count "batch";
    sv_queue_cap = get tenant_count "queue_cap";
    sv_faults = get_opt faults "faults";
    sv_slo_ms = get_opt Arg.float "slo_ms";
    sv_hang_factor =
      get_opt
        (slo (fun s f -> { s with Fleet.sl_hang_factor = f }) Arg.float)
        "hang_factor";
    sv_hedge = flag "hedge";
    sv_breaker =
      (if flag "breaker" then
         Some
           { Fleet.bk_failures =
               get
                 (breaker (fun b n -> { b with Fleet.bk_failures = n }) Arg.int)
                 "breaker_failures";
             bk_cooldown_s =
               get
                 (breaker
                    (fun b s -> { b with Fleet.bk_cooldown_s = s })
                    Arg.float)
                 "breaker_cooldown_s";
             bk_probes =
               get
                 (breaker (fun b n -> { b with Fleet.bk_probes = n }) Arg.int)
                 "breaker_probes" }
       else None) }

(* --slo-ms: the fleet stamps each request's deadline, and refuses one
   that is not positive and finite. *)
let with_slo slo_ms requests =
  match slo_ms with
  | None -> requests
  | Some ms -> Fleet.with_deadline (ms /. 1000.0) requests

(* The pool options, fault injector, apps and requests of a serve
   configuration. *)
let fleet_run c =
  let tenants =
    List.map
      (fun t ->
        { t with Traffic.tn_batch = c.sv_batch; tn_queue_cap = c.sv_queue_cap })
      (snd c.sv_apps)
  in
  let faults = Option.map (Fault.create ~seed:c.sv_seed) c.sv_faults in
  let apps = Traffic.apps ~seed:c.sv_seed tenants in
  let requests =
    with_slo c.sv_slo_ms
      (Traffic.requests ~seed:c.sv_seed ~horizon:c.sv_horizon tenants)
  in
  let slo =
    { Fleet.sl_hang_factor =
        Option.value ~default:Fleet.no_slo.Fleet.sl_hang_factor
          c.sv_hang_factor;
      sl_hedge = c.sv_hedge;
      sl_breaker = c.sv_breaker }
  in
  let opts =
    { Fleet.o_policy = c.sv_policy;
      o_devices = c.sv_devices;
      o_slo = slo }
  in
  (opts, faults, apps, requests)

let print_fleet_outcome outcome faults =
  print_string (Fleet.report_to_string outcome.Fleet.oc_report);
  match faults with
  | Some f -> Format.printf "# faults: %a@." Fault.pp_stats (Fault.stats f)
  | None -> ()

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    Printf.printf "%-8s %-16s %-6s\n" "kernel" "type" "tasks";
    List.iter
      (fun (w : W.t) ->
        Printf.printf "%-8s %-16s %-6d\n" w.W.w_name w.W.w_kind w.W.w_tasks)
      W.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in evaluation kernels.")
    Term.(const run $ const ())

(* ---------- compile ---------- *)

let compile_cmd =
  let design_arg =
    let doc = "Apply a design before printing: area, perf or structured." in
    Arg.(value & opt (some design) None & info [ "design" ] ~doc)
  in
  let run workload file design =
    let _, c = compiled_of ~workload ~file () in
    let design = Option.map (fun seed -> seed c.S2fa.c_dspace) design in
    print_string (S2fa.emit_c ?design c)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a kernel to HLS C and print the generated code.")
    Term.(const run $ workload_arg $ file_arg $ design_arg)

(* ---------- echo ---------- *)

let echo_cmd =
  let run workload file =
    let w, _ = compiled_of ~workload ~file () in
    let src =
      match w with
      | Some w -> w.W.w_source
      | None -> read_text (Option.get file)
    in
    print_string
      (S2fa_scala.Pretty.to_string (S2fa_scala.Parser.parse_program src))
  in
  Cmd.v
    (Cmd.info "echo"
       ~doc:"Parse a kernel and pretty-print the normalized MiniScala.")
    Term.(const run $ workload_arg $ file_arg)

(* ---------- bytecode ---------- *)

let bytecode_cmd =
  let run workload file =
    let _, c = compiled_of ~workload ~file () in
    List.iter
      (fun m ->
        Format.printf "%a@." S2fa_jvm.Insn.pp_method m)
      c.S2fa.c_class.S2fa.Insn.jmethods
  in
  Cmd.v
    (Cmd.info "bytecode"
       ~doc:"Print the JVM bytecode disassembly of a kernel class.")
    Term.(const run $ workload_arg $ file_arg)

(* ---------- dse ---------- *)

(* Shared by `dse` and `resume`: curve, best line, cache and fault
   footers. `resume` diffs the best line against the uninterrupted run. *)
let print_dse_result result =
  Printf.printf "# best-so-far curve (simulated minutes, seconds)\n";
  List.iter
    (fun (m, p) -> Printf.printf "%8.1f  %.6f\n" m p)
    (Driver.best_curve result);
  (match result.Driver.rr_best with
  | Some (cfg, perf) ->
    Printf.printf "# best %.6f s after %.0f min and %d evaluations\n" perf
      result.Driver.rr_minutes result.Driver.rr_evals;
    Format.printf "# %a@." S2fa_tuner.Space.pp_cfg cfg
  | None -> Printf.printf "# nothing feasible found\n");
  (match result.Driver.rr_cache with
  | Some s -> Format.printf "# cache: %a@." Resultdb.pp_snapshot s
  | None -> ());
  match result.Driver.rr_fault with
  | Some st -> Format.printf "# faults: %a@." Fault.pp_stats st
  | None -> ()

let dse_cmd =
  let mode_arg =
    let doc = "Exploration flow: s2fa or vanilla." in
    Arg.(value & opt mode `S2fa & info [ "mode" ] ~doc)
  in
  let shared_db_arg =
    let doc =
      "Share one HLS result database across all partitions and techniques \
       (duplicate design points cost a lookup, not a re-run)."
    in
    Arg.(value & flag & info [ "shared-db" ] ~doc)
  in
  let trace_arg =
    trace_arg
      "Write a JSONL telemetry trace of the run (virtual-clock \
       timestamps; replay it with `s2fa trace FILE`)."
  in
  let faults_arg =
    faults_arg
      "Inject seeded tool failures, e.g. crash=0.05,hang=0.02,timeout=45 \
       (keys: crash, hang, transient, core_loss, timeout, retries, \
       backoff). Same seed and spec reproduce the same fault schedule."
  in
  let checkpoint_arg =
    checkpoint_arg
      "Write a JSONL checkpoint of the DSE state, replaced every \
       --ck-every virtual minutes; recover it with `s2fa resume FILE`."
  in
  let ck_every_arg =
    let doc =
      "Virtual minutes between checkpoint snapshots. Must be a finite \
       positive number."
    in
    (* At 0 or below the snapshot loop would never end, and at nan or
       inf no snapshot would ever be written. *)
    Arg.(value & opt minutes 30.0 & info [ "ck-every" ] ~docv:"MINUTES" ~doc)
  in
  let cfg_term =
    let make ds_workload ds_file ds_seed ds_minutes ds_shared_db ds_faults =
      { ds_workload; ds_file; ds_seed; ds_minutes; ds_shared_db; ds_faults }
    in
    Term.(
      const make $ workload_arg $ file_arg $ seed_arg $ minutes_arg
      $ shared_db_arg $ faults_arg)
  in
  let run cfg mode trace_file ck_file ck_every profile =
    with_profile profile @@ fun () ->
    let tracer = Option.map make_tracer trace_file in
    let trace = Option.map fst tracer in
    let c, rng, db, faults, opts = dse_run cfg in
    let checkpoint =
      Option.map
        (Driver.checkpoint_to ~meta:(dse_meta cfg) ~every:ck_every)
        ck_file
    in
    let result =
      match mode with
      | `S2fa -> S2fa.explore ~opts ?db ?trace ?faults ?checkpoint c rng
      | `Vanilla ->
        S2fa.explore_vanilla ~time_limit:cfg.ds_minutes ?db ?trace ?faults
          ?checkpoint c rng
    in
    print_dse_result result;
    Option.iter (Printf.printf "# checkpoint: %s\n") ck_file;
    match (tracer, trace_file) with
    | Some (tr, oc), Some path ->
      close_out oc;
      Printf.printf "# trace: %d events -> %s\n" (Telemetry.emitted tr) path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "dse" ~doc:"Run design-space exploration on a kernel.")
    Term.(
      const run $ cfg_term $ mode_arg $ trace_arg $ checkpoint_arg
      $ ck_every_arg $ profile_arg)

(* ---------- resume ---------- *)

let resume_cmd =
  let ck_file_arg =
    let doc =
      "Checkpoint written by `s2fa dse --checkpoint` or `s2fa serve \
       --checkpoint` (the header tells them apart)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT" ~doc)
  in
  (* Each resume rebuilds its run from the checkpoint's meta and keeps
     refreshing the same file past the recovered snapshot. *)
  let resume_dse ck =
    let path = ck.Checkpoint.c_file in
    let snapshot = ok_or_exit (Driver.ck_of_checkpoint ck) in
    let c, rng, db, faults, opts =
      dse_run (dse_of_meta path snapshot.Driver.ck_meta)
    in
    let checkpoint =
      Driver.checkpoint_to ~meta:snapshot.Driver.ck_meta
        ~every:snapshot.Driver.ck_every path
    in
    let result =
      ok_or_exit
        (S2fa.resume ~opts ?db ?faults ~checkpoint ~file:path ~snapshot c rng)
    in
    Printf.printf "# resumed %s flow from %s at %.1f virtual minutes\n"
      snapshot.Driver.ck_flow path snapshot.Driver.ck_minutes;
    print_dse_result result
  in
  let resume_fleet ck =
    fleet_or_exit @@ fun () ->
    let path = ck.Checkpoint.c_file in
    let snapshot = ok_or_exit (Fleet.snapshot_of_checkpoint ck) in
    let opts, faults, apps, requests =
      fleet_run (serve_of_meta path snapshot.Fleet.fk_meta)
    in
    let checkpoint =
      { Fleet.cks_path = path;
        cks_every_s = snapshot.Fleet.fk_every;
        cks_meta = snapshot.Fleet.fk_meta }
    in
    let outcome =
      Fleet.resume ~opts ?faults ~checkpoint ~file:path ~snapshot apps requests
    in
    Printf.printf
      "# resumed fleet serve from %s at %.3f virtual seconds (%d events)\n"
      path snapshot.Fleet.fk_now snapshot.Fleet.fk_events;
    print_fleet_outcome outcome faults
  in
  (* Route on the header's kind: "fleet" for a serve snapshot,
     "header" for a DSE one. *)
  let run path =
    let ck =
      ok_or_exit (Checkpoint.read ~kinds:[ "header"; "fleet" ] path)
    in
    if ck.Checkpoint.c_kind = "fleet" then resume_fleet ck
    else resume_dse ck
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Recover a DSE or fleet-serve from a checkpoint file: replay the \
          recorded configuration deterministically, validate the \
          regenerated state byte-for-byte against the snapshot, and run \
          to completion. The outcome is bit-identical to an \
          uninterrupted run's.")
    Term.(const run $ ck_file_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let trace_file_arg =
    let doc = "JSONL trace written by `s2fa dse --trace`." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let run path =
    Trace.print_report Format.std_formatter (ok_or_exit (Trace.load path))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a telemetry trace: best-so-far curve, per-partition core \
          occupancy, technique attribution and entropy timelines, all \
          reconstructed from the event stream alone.")
    Term.(const run $ trace_file_arg)

(* ---------- cache ---------- *)

let cache_cmd =
  let run workload file seed minutes =
    let _, c = compiled_of ~workload ~file () in
    let opts =
      { Driver.default_s2fa_opts with Driver.so_time_limit = minutes }
    in
    let plain = S2fa.explore ~opts c (Rng.create seed) in
    let db = Resultdb.create () in
    let shared = S2fa.explore ~opts ~db c (Rng.create seed) in
    let best r =
      match r.Driver.rr_best with Some (_, p) -> p | None -> infinity
    in
    Printf.printf "# same DSE under the same seed, without / with the \
                   shared result DB\n";
    Printf.printf "%-12s %12s %16s %14s\n" "" "evaluations"
      "virtual minutes" "best (s)";
    Printf.printf "%-12s %12d %16.1f %14.6f\n" "no-db" plain.Driver.rr_evals
      plain.Driver.rr_minutes (best plain);
    Printf.printf "%-12s %12d %16.1f %14.6f\n" "shared-db"
      shared.Driver.rr_evals shared.Driver.rr_minutes (best shared);
    (match shared.Driver.rr_cache with
    | Some s ->
      Format.printf "# cache: %a@." Resultdb.pp_snapshot s;
      Printf.printf
        "# every hit is one SDx re-run the no-db flow paid for; hits never \
         advance the virtual clock or change a measured quality\n"
    | None -> ());
    Printf.printf "# best design unchanged by the DB: %b\n"
      (match (plain.Driver.rr_best, shared.Driver.rr_best) with
      | Some (a, pa), Some (b, pb) ->
        S2fa_tuner.Space.key a = S2fa_tuner.Space.key b && pa = pb
      | None, None -> true
      | _ -> false)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Run a DSE twice (with and without the shared HLS result \
          database) and report the duplicate evaluations the database \
          absorbed.")
    Term.(const run $ workload_arg $ file_arg $ seed_arg $ minutes_arg)

(* ---------- report ---------- *)

let report_cmd =
  let run workload file seed =
    let w, c = compiled_of ~workload ~file () in
    let dse = S2fa.explore c (Rng.create seed) in
    match dse.Driver.rr_best with
    | None -> Printf.eprintf "nothing feasible found\n"
    | Some (cfg, _) ->
      let tasks = match w with Some w -> w.W.w_tasks | None -> 4096 in
      let r = S2fa.estimate ~tasks c cfg in
      Printf.printf "%-8s BRAM %3.0f%%  DSP %3.0f%%  FF %3.0f%%  LUT %3.0f%%  %3.0f MHz\n"
        (match w with Some w -> w.W.w_name | None -> "kernel")
        (100.0 *. r.E.r_bram_pct) (100.0 *. r.E.r_dsp_pct)
        (100.0 *. r.E.r_ff_pct) (100.0 *. r.E.r_lut_pct) r.E.r_freq_mhz
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"DSE a kernel and print its Table-2-style resource row.")
    Term.(const run $ workload_arg $ file_arg $ seed_arg)

(* ---------- speedup ---------- *)

let speedup_cmd =
  let tasks_arg =
    let doc = "Batch size used for the comparison; a positive integer." in
    Arg.(value & opt (some (count 1)) None & info [ "tasks" ] ~doc)
  in
  let run workload seed tasks =
    let w =
      match workload with
      | Some w -> w
      | None ->
        Printf.eprintf "speedup needs -w\n";
        exit 1
    in
    let c = W.compile w in
    let tasks = Option.value ~default:w.W.w_tasks tasks in
    let rng = Rng.create 42 in
    let fields = w.W.w_fields rng in
    let sample_n = min 128 tasks in
    let sample = w.W.w_gen rng sample_n in
    let jvm = Blaze.map_jvm c.S2fa.c_class ~fields sample in
    let jvm_total =
      jvm.Blaze.tr_seconds /. float_of_int sample_n *. float_of_int tasks
    in
    let dse = S2fa.explore ~tasks c (Rng.create seed) in
    (match dse.Driver.rr_best with
    | Some (cfg, _) ->
      let r = S2fa.estimate ~tasks c cfg in
      Printf.printf "%-8s jvm %.4f s, s2fa design %.6f s: %.1fx speedup\n"
        w.W.w_name jvm_total r.E.r_seconds
        (jvm_total /. r.E.r_seconds)
    | None -> Printf.eprintf "nothing feasible found\n")
  in
  Cmd.v
    (Cmd.info "speedup" ~doc:"Fig-4-style JVM-vs-accelerator comparison.")
    Term.(const run $ workload_arg $ seed_arg $ tasks_arg)

(* ---------- verify ---------- *)

let verify_cmd =
  let all_arg =
    let doc = "Verify every built-in kernel." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let symbolic_arg =
    let doc =
      "Prove equivalence with the bounded symbolic evaluator instead of \
       concrete differential sampling."
    in
    Arg.(value & flag & info [ "symbolic" ] ~doc)
  in
  let chains_arg =
    let doc =
      "Random design-space configs to check per kernel; a non-negative \
       integer."
    in
    Arg.(value & opt (count 0) 2 & info [ "chains" ] ~doc)
  in
  let tasks_arg =
    let doc = "Task count the kernel is run with; a positive integer." in
    Arg.(value & opt (count 1) 2 & info [ "tasks" ] ~doc)
  in
  let run workload all symbolic chains seed tasks profile =
    with_profile profile @@ fun () ->
    let workloads =
      if all then W.all
      else
        match workload with
        | Some w -> [ w ]
        | None ->
          Printf.eprintf "verify needs -w KERNEL or --all\n";
          exit 1
    in
    let proved = ref 0 and refuted = ref 0 in
    let unknown = ref 0 and skipped = ref 0 in
    List.iter
      (fun (w : W.t) ->
        let name = w.W.w_name in
        let c = W.compile w in
        let flat = c.S2fa.c_flat in
        let caps = Fuzz.scale_caps ~tasks c.S2fa.c_buffer_elems in
        let bindings = [ ("N", Cinterp.VI tasks) ] in
        let check tag p2 =
          if symbolic then
            match Sym.equiv ~bindings ~seed ~caps flat p2 "kernel" with
            | Sym.Proved st ->
              incr proved;
              Printf.printf "%-8s %-14s proved (%d outputs, %d terms)\n" name
                tag st.Sym.pv_outputs st.Sym.pv_nodes
            | Sym.Refuted cx ->
              incr refuted;
              Printf.printf "%-8s %-14s REFUTED: %s\n" name tag
                cx.Sym.cx_detail
            | Sym.Unknown m ->
              incr unknown;
              Printf.printf "%-8s %-14s unknown: %s\n" name tag m
          else
            match Sym.refute ~seed ~bindings ~caps flat p2 "kernel" with
            | None ->
              incr proved;
              Printf.printf "%-8s %-14s ok (no counterexample)\n" name tag
            | Some cx ->
              incr refuted;
              Printf.printf "%-8s %-14s REFUTED: %s\n" name tag
                cx.Sym.cx_detail
        in
        let try_t tag mk =
          match mk () with
          | exception Transform.Transform_error _ -> incr skipped
          | p2 -> check tag p2
        in
        (* Every step-1 loop under the three structural rewrites. *)
        let lids = ref [] in
        List.iter
          (fun (f : Csyntax.cfunc) ->
            Csyntax.iter_loops
              (fun _ l ->
                if l.Csyntax.lstep = 1 then lids := l.Csyntax.lid :: !lids)
              f.Csyntax.cfbody)
          flat.Csyntax.cfuncs;
        List.iter
          (fun lid ->
            try_t
              (Printf.sprintf "tile4@L%d" lid)
              (fun () ->
                Transform.apply
                  { Transform.cfg_loops =
                      [ ( lid,
                          { Transform.lc_tile = 4;
                            lc_parallel = 1;
                            lc_pipeline = Csyntax.PipeOff } ) ];
                    cfg_bitwidths = [] }
                  flat);
            try_t
              (Printf.sprintf "unroll3@L%d" lid)
              (fun () -> Transform.real_unroll ~factor:3 ~loop_id:lid flat);
            try_t
              (Printf.sprintf "reduce4@L%d" lid)
              (fun () -> Transform.tree_reduce ~lanes:4 ~loop_id:lid flat))
          (List.rev !lids);
        (* Random design-space configs, as the DSE would apply them. *)
        let ds = Dspace.identify flat in
        let trng = Rng.create seed in
        for k = 1 to chains do
          try_t
            (Printf.sprintf "cfg%d" k)
            (fun () ->
              Transform.apply
                (Dspace.to_merlin ds (Space.random_cfg trng ds.Dspace.ds_space))
                flat)
        done)
      workloads;
    Printf.printf
      "# %d %s, %d refuted, %d unknown, %d rewrites refused as illegal\n"
      !proved
      (if symbolic then "proved" else "ok")
      !refuted !unknown !skipped;
    if !refuted > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check that Merlin rewrites preserve kernel semantics: every \
          per-loop tile/unroll/tree-reduction and random design-space \
          configs, via concrete differential sampling or (--symbolic) the \
          bounded symbolic evaluator's equivalence proof.")
    Term.(
      const run $ workload_arg $ all_arg $ symbolic_arg $ chains_arg
      $ seed_arg $ tasks_arg $ profile_arg)

let fuzz_cmd =
  let count_arg =
    let doc =
      "Number of kernels (and C transform cases) to generate; a positive \
       integer."
    in
    Arg.(value & opt (count 1) 200 & info [ "count" ] ~doc)
  in
  let out_arg =
    let doc = "Directory to write minimized reproducers into." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc)
  in
  let no_shrink_arg =
    let doc = "Report failures unminimized." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let coverage_arg =
    let doc =
      "Coverage-guided mode: kernels contributing new symbolic path \
       features seed a mutation pool."
    in
    Arg.(value & flag & info [ "coverage" ] ~doc)
  in
  let run seed count out no_shrink coverage profile =
    with_profile profile @@ fun () ->
    let st =
      Fuzz.run_campaign ~shrink:(not no_shrink) ~coverage ~seed ~count ()
    in
    Format.printf "%a@." Fuzz.pp_stats st;
    List.iteri
      (fun i (f : Fuzz.failure) ->
        Format.printf "@.FAILURE %d [%s] %s@.%s@." (i + 1) f.Fuzz.f_oracle
          f.Fuzz.f_detail f.Fuzz.f_source;
        if not (String.equal f.Fuzz.f_oracle "c-transform") then begin
          Format.printf "%s@."
            (Fuzz.ocaml_repro ~name:(Printf.sprintf "repro_%d" (i + 1)) f);
          match out with
          | Some dir ->
            let path = Fuzz.write_corpus_file ~dir ~expect:"fail" f in
            Format.printf "reproducer written to %s@." path
          | None -> ()
        end)
      st.Fuzz.st_failures;
    if st.Fuzz.st_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: random kernels checked under \
          the verify / JVM-vs-C / transform / estimate oracles.")
    Term.(
      const run $ seed_arg $ count_arg $ out_arg $ no_shrink_arg
      $ coverage_arg $ profile_arg)

(* ---------- serve ---------- *)

let serve_cmd =
  let apps_arg =
    let doc =
      "Tenants as NAME[:RATE[:WEIGHT]] items, comma-separated — e.g. \
       'KMeans:400:1,LR:300:2'. RATE is mean requests per virtual second \
       (default 100), WEIGHT the fair-share weight (default 1)."
    in
    let default = default apps "KMeans:400,LR:300" in
    Arg.(value & opt apps default & info [ "apps" ] ~doc)
  in
  let policy_arg =
    let doc = "Scheduling policy: fcfs, sjf, affinity or fair." in
    Arg.(value & opt policy Fleet.Fcfs & info [ "policy" ] ~doc)
  in
  let devices_arg =
    let doc = "Number of devices in the accelerator pool." in
    Arg.(value & opt int 2 & info [ "devices" ] ~doc)
  in
  let batch_arg =
    let doc = "Max requests per accelerator invocation." in
    Arg.(value & opt tenant_count 16 & info [ "batch" ] ~doc)
  in
  let queue_cap_arg =
    let doc = "Per-tenant queue bound before JVM overflow." in
    Arg.(value & opt tenant_count 64 & info [ "queue-cap" ] ~doc)
  in
  let faults_arg =
    faults_arg "Fault spec (core_loss=P kills devices mid-batch)."
  in
  let trace_arg =
    trace_arg "Write a JSONL telemetry trace of the serving run."
  in
  let metrics_arg =
    let doc =
      "Write the fleet report as a Prometheus text exposition: its \
       headline numbers, then one gauge per column of the per-app \
       table, labelled by app."
    in
    Arg.(
      value
      & opt (some output_file) None
      & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let slo_ms_arg =
    slo_ms_arg
      "Per-request completion deadline in virtual milliseconds (measured \
       from arrival). Requests the pool cannot finish in time are shed \
       to the JVM path — they still complete, bit-identically."
  in
  let hang_factor_arg =
    let doc =
      "Watchdog: cancel an accelerator batch once it has run FACTOR \
       times its estimated service time (must be > 1). Off by default."
    in
    Arg.(
      value & opt (some float) None & info [ "hang-factor" ] ~docv:"FACTOR" ~doc)
  in
  let hedge_arg =
    let doc =
      "On watchdog timeout, speculatively duplicate the batch onto an \
       idle device instead of only re-queueing; first result wins."
    in
    Arg.(value & flag & info [ "hedge" ] ~doc)
  in
  let breaker_arg =
    let doc =
      "Enable per-device circuit breakers: repeated watchdog timeouts \
       quarantine a device, half-open probes readmit it."
    in
    Arg.(value & flag & info [ "breaker" ] ~doc)
  in
  let bk_failures_arg =
    let doc = "Consecutive failures before a breaker trips." in
    Arg.(
      value
      & opt int Fleet.default_breaker.Fleet.bk_failures
      & info [ "breaker-failures" ] ~docv:"N" ~doc)
  in
  let bk_cooldown_arg =
    let doc = "Quarantine cooldown in virtual seconds before half-open." in
    Arg.(
      value
      & opt float Fleet.default_breaker.Fleet.bk_cooldown_s
      & info [ "breaker-cooldown-s" ] ~docv:"S" ~doc)
  in
  let bk_probes_arg =
    let doc = "Successful half-open probes needed to close a breaker." in
    Arg.(
      value
      & opt int Fleet.default_breaker.Fleet.bk_probes
      & info [ "breaker-probes" ] ~docv:"N" ~doc)
  in
  let ck_arg =
    checkpoint_arg
      "Write a JSONL snapshot of the serve, replaced every --ck-every-s \
       virtual seconds; recover it with `s2fa resume FILE`."
  in
  let ck_every_arg =
    let doc = "Virtual seconds between serve snapshots." in
    (* The fleet refuses an interval at or below 0 itself; at inf no
       snapshot would ever be written. *)
    Arg.(
      value
      & opt (finite `Any "seconds") 1.0
      & info [ "ck-every-s" ] ~docv:"S" ~doc)
  in
  let cfg_term =
    let make sv_apps sv_policy sv_devices sv_seed sv_horizon sv_batch
        sv_queue_cap sv_faults sv_slo_ms sv_hang_factor sv_hedge breaker
        bk_failures bk_cooldown_s bk_probes =
      { sv_apps; sv_policy; sv_devices; sv_seed; sv_horizon; sv_batch;
        sv_queue_cap; sv_faults; sv_slo_ms; sv_hang_factor; sv_hedge;
        sv_breaker =
          (if breaker then
             Some { Fleet.bk_failures; bk_cooldown_s; bk_probes }
           else None) }
    in
    Term.(
      const make $ apps_arg $ policy_arg $ devices_arg $ seed_arg
      $ horizon_arg 1.0 $ batch_arg $ queue_cap_arg $ faults_arg
      $ slo_ms_arg $ hang_factor_arg $ hedge_arg $ breaker_arg
      $ bk_failures_arg $ bk_cooldown_arg $ bk_probes_arg)
  in
  (* The fleet report as gauges: its headline numbers, then one gauge
     per column of the per-app table, labelled by app. *)
  let fleet_gauges (r : Fleet.report) =
    let b = Buffer.create 1024 in
    let gauge name v =
      Printf.bprintf b "# TYPE s2fa_fleet_%s gauge\ns2fa_fleet_%s %s\n" name
        name v
    in
    let g_i name i = gauge name (string_of_int i) in
    let g_f name f = gauge name (Telemetry.Json.fstr f) in
    g_i "devices" r.Fleet.rp_devices;
    g_i "requests" r.Fleet.rp_requests;
    g_i "accelerated" r.Fleet.rp_accelerated;
    g_i "fallbacks" r.Fleet.rp_fallbacks;
    g_i "batches" r.Fleet.rp_batches;
    g_i "reconfigs" r.Fleet.rp_reconfigs;
    g_i "requeued" r.Fleet.rp_requeued;
    g_i "devices_lost" r.Fleet.rp_devices_lost;
    g_f "makespan_seconds" r.Fleet.rp_makespan;
    g_f "throughput_rps" r.Fleet.rp_throughput;
    g_f "fairness" r.Fleet.rp_fairness;
    (* SLO gauges only when the control plane acted, so a run with it
       disabled scrapes byte-identically to the pre-SLO exposition. *)
    if
      r.Fleet.rp_shed + r.Fleet.rp_timeouts + r.Fleet.rp_hedges
        + r.Fleet.rp_breaker_trips
      > 0
    then begin
      g_i "shed" r.Fleet.rp_shed;
      g_i "timeouts" r.Fleet.rp_timeouts;
      g_i "hedges" r.Fleet.rp_hedges;
      g_i "breaker_trips" r.Fleet.rp_breaker_trips
    end;
    if r.Fleet.rp_deadline_hits + r.Fleet.rp_deadline_misses > 0 then begin
      g_i "deadline_hits" r.Fleet.rp_deadline_hits;
      g_i "deadline_misses" r.Fleet.rp_deadline_misses
    end;
    (* App names are built-in kernel names: no label escaping needed. *)
    let app_gauge name v =
      Printf.bprintf b "# TYPE s2fa_fleet_app_%s gauge\n" name;
      List.iter
        (fun (a : Fleet.app_report) ->
          Printf.bprintf b "s2fa_fleet_app_%s{app=\"%s\"} %s\n" name
            a.Fleet.ar_app (v a))
        r.Fleet.rp_apps
    in
    let a_i name f = app_gauge name (fun a -> string_of_int (f a)) in
    let a_f name f = app_gauge name (fun a -> Telemetry.Json.fstr (f a)) in
    a_i "requests" (fun a -> a.Fleet.ar_requests);
    a_i "accelerated" (fun a -> a.Fleet.ar_accelerated);
    a_i "fallbacks" (fun a -> a.Fleet.ar_fallbacks);
    a_f "p50_ms" (fun a -> a.Fleet.ar_p50_ms);
    a_f "p95_ms" (fun a -> a.Fleet.ar_p95_ms);
    a_f "p99_ms" (fun a -> a.Fleet.ar_p99_ms);
    a_f "mean_ms" (fun a -> a.Fleet.ar_mean_ms);
    a_f "share" (fun a -> a.Fleet.ar_share);
    Buffer.contents b
  in
  let run cfg trace_path metrics_path ck_path ck_every profile =
    with_profile profile @@ fun () ->
    fleet_or_exit @@ fun () ->
    let tracer = Option.map make_tracer trace_path in
    let trace = Option.map fst tracer in
    let opts, faults, apps, requests = fleet_run cfg in
    let checkpoint =
      Option.map
        (fun path ->
          { Fleet.cks_path = path;
            cks_every_s = ck_every;
            cks_meta = serve_meta cfg })
        ck_path
    in
    let outcome = Fleet.serve ~opts ?trace ?faults ?checkpoint apps requests in
    print_fleet_outcome outcome faults;
    (match ck_path with
    | Some path when Sys.file_exists path ->
      Printf.printf "# checkpoint: %s\n" path
    | Some path ->
      (* The run finished before the first --ck-every-s tick. *)
      Printf.printf "# checkpoint: %s not written (run shorter than \
                     --ck-every-s)\n"
        path
    | None -> ());
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (fleet_gauges outcome.Fleet.oc_report));
        Printf.printf "# metrics: %s\n" path)
      metrics_path;
    match tracer with
    | Some (_, oc) ->
      close_out oc;
      Printf.printf "# trace written to %s\n" (Option.get trace_path)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate a multi-tenant accelerator pool serving the built-in \
          kernels under open-loop traffic, optionally under an SLO \
          control plane (deadlines, watchdog, hedging, breakers).")
    Term.(
      const run $ cfg_term $ trace_arg $ metrics_arg $ ck_arg $ ck_every_arg
      $ profile_arg)

(* ---------- federate ---------- *)

let federate_cmd =
  let apps_arg =
    let doc =
      "Tenants as NAME[:RATE[:WEIGHT]] items, comma-separated (see \
       `s2fa serve`). RATE is per region, scaled by each region's \
       multiplier."
    in
    let default = default apps "KMeans:300,LR:200" in
    Arg.(value & opt apps default & info [ "apps" ] ~doc)
  in
  let clusters_arg =
    let doc =
      "Member pools as NAME[:DEVICES[:WEIGHT]] items, comma-separated \
       — e.g. 'east:2:1,west:3:2'."
    in
    let default = default clusters "east:2,west:2" in
    Arg.(value & opt clusters default & info [ "clusters" ] ~doc)
  in
  let regions_arg =
    let doc =
      "Origin regions as NAME[:SCALE] items, comma-separated; SCALE \
       multiplies every tenant's arrival rate in that region (skewed \
       regional traffic)."
    in
    let default = default regions "east,west" in
    Arg.(value & opt regions default & info [ "regions" ] ~doc)
  in
  let route_arg =
    let doc = "Routing policy: wrr, least-queue, cache-affinity or locality." in
    Arg.(value & opt route Fed.Weighted_rr & info [ "route" ] ~doc)
  in
  let rtt_ms_arg =
    let doc =
      "One-way RTT in virtual milliseconds between region i and cluster \
       j for i <> j (cluster i is region i's local pool and costs \
       nothing)."
    in
    Arg.(value & opt float 0.0 & info [ "rtt-ms" ] ~docv:"MS" ~doc)
  in
  let slo_ms_arg =
    slo_ms_arg "Per-request completion deadline in virtual milliseconds."
  in
  let autoscale_arg =
    let doc =
      "Enable queue-depth autoscaling: pools lease pre-provisioned \
       devices under backlog and release them when drained."
    in
    Arg.(value & flag & info [ "autoscale" ] ~doc)
  in
  let scale_max_arg =
    let doc = "Autoscaler per-cluster device ceiling." in
    Arg.(
      value
      & opt int Fed.default_autoscale.Fed.as_max_devices
      & info [ "scale-max" ] ~docv:"N" ~doc)
  in
  let scale_interval_arg =
    let doc = "Virtual seconds between autoscaler ticks." in
    Arg.(value & opt float 0.05 & info [ "scale-interval-s" ] ~docv:"S" ~doc)
  in
  let retune_slo_arg =
    let doc =
      "Enable the online DSE loop: a tenant whose federation-level p99 \
       exceeds MS at an epoch boundary gets a bounded re-tuning run, \
       its winning design promoted to every pool at the next epoch."
    in
    Arg.(value & opt (some float) None & info [ "retune-slo-ms" ] ~docv:"MS" ~doc)
  in
  let retune_epoch_arg =
    let doc = "Virtual seconds between online-DSE epochs." in
    Arg.(value & opt float 0.1 & info [ "retune-epoch-s" ] ~docv:"S" ~doc)
  in
  let trace_arg =
    trace_arg "Write a JSONL telemetry trace of the federated run."
  in
  let run (_, tenants) (_, clusters) (_, regions) route rtt_ms seed horizon
      slo_ms autoscale scale_max scale_interval retune_slo retune_epoch
      trace_path profile =
    with_profile profile @@ fun () ->
    fleet_or_exit @@ fun () ->
    let rtt_s ci =
      Array.init (List.length regions) (fun ri ->
          if ri = ci then 0.0 else rtt_ms /. 1000.0)
    in
    let clusters =
      List.mapi (fun ci c -> { c with Fed.cl_rtt_s = rtt_s ci }) clusters
    in
    let tracer = Option.map make_tracer trace_path in
    let trace = Option.map fst tracer in
    let apps = Traffic.apps ~seed tenants in
    let fed_tenants =
      List.mapi
        (fun i tn ->
          (* Compile once more to hand the online DSE loop its
             re-tuning substrate; the serving apps above already carry
             the structured-seed design. *)
          let compiled =
            if retune_slo <> None then
              Some (W.compile tn.Traffic.tn_workload)
            else None
          in
          Fed.tenant ?compiled apps.(i))
        tenants
    in
    let requests =
      let origins, requests =
        List.split (Traffic.regional_requests ~seed ~horizon regions tenants)
      in
      List.combine origins (with_slo slo_ms requests)
    in
    let opts =
      { Fed.default_opts with
        Fed.fd_route = route;
        fd_seed = seed;
        fd_autoscale =
          (if autoscale then
             Some
               { Fed.default_autoscale with
                 Fed.as_max_devices = scale_max;
                 as_interval_s = scale_interval }
           else None);
        fd_retune =
          Option.map
            (fun ms -> Fed.retune ~epoch_s:retune_epoch ms)
            retune_slo }
    in
    (match
       Fed.serve ~opts ?trace ~clusters fed_tenants requests
     with
    | outcome ->
      print_string (Fed.report_to_string outcome.Fed.fo_report)
    | exception Fed.Federation_error m ->
      Printf.eprintf "federation error: %s\n" m;
      exit 1);
    match tracer with
    | Some (_, oc) ->
      close_out oc;
      Printf.printf "# trace written to %s\n" (Option.get trace_path)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "federate"
       ~doc:
         "Simulate a geo-sharded federation of accelerator pools: a \
          routing tier over per-region traffic, optional queue-depth \
          autoscaling, and an optional online DSE loop that re-tunes \
          SLO-breaching tenants and promotes winning designs to every \
          member pool at deterministic epoch boundaries.")
    Term.(
      const run $ apps_arg $ clusters_arg $ regions_arg $ route_arg
      $ rtt_ms_arg $ seed_arg $ horizon_arg 0.5 $ slo_ms_arg $ autoscale_arg
      $ scale_max_arg $ scale_interval_arg $ retune_slo_arg
      $ retune_epoch_arg $ trace_arg $ profile_arg)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let seeds_arg =
    let doc = "Campaign size: number of seeded scenarios to run." in
    Arg.(value & opt (count 1) 20 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let from_arg =
    let doc = "First seed of the campaign." in
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"SEED" ~doc)
  in
  let fed_arg =
    let doc =
      "Run federation scenarios instead: random cluster counts, skewed \
       regional traffic and correlated device loss within one cluster, \
       checked against the fleet invariants plus cluster invariance \
       (result values never depend on the serving cluster)."
    in
    Arg.(value & flag & info [ "fed" ] ~doc)
  in
  let run seeds seed0 fed =
    if fed then begin
      let c = Chaos.run_fed ~seeds ~seed0 () in
      Format.printf "%a@?" Chaos.pp_fed_campaign c;
      if c.Chaos.fc_violations <> [] then exit 1
    end
    else begin
      let c = Chaos.run ~seeds ~seed0 () in
      Format.printf "%a@?" Chaos.pp_campaign c;
      if c.Chaos.cg_violations <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos campaign over the serving fleet: each seed \
          derives a randomized scenario (tenants, pool size, faults, SLO \
          config) and is checked against the determinism, \
          no-request-lost, JVM-oracle and pool-monotonicity invariants \
          (with --fed, federation scenarios and the cluster-invariance \
          invariant instead). Exits non-zero on any violation.")
    Term.(const run $ seeds_arg $ from_arg $ fed_arg)

(* ---------- prof ---------- *)

let prof_cmd =
  let prof_file_arg =
    let doc = "Span JSONL profile written by --profile." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROFILE" ~doc)
  in
  let top_arg =
    let doc = "Hotspots to list in the self-time ranking." in
    Arg.(value & opt (count 0) 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run path top =
    Obs.print_report ~top Format.std_formatter
      (ok_or_exit (Obs.load_file path))
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Replay a span profile: the aggregated span tree with total and \
          self time, the per-stage share table, and the top self-time \
          hotspots — all reconstructed from the JSONL log alone.")
    Term.(const run $ prof_file_arg $ top_arg)

let () =
  let info =
    Cmd.info "s2fa" ~version:"1.0.0"
      ~doc:"Spark-to-FPGA-Accelerator automation framework (simulated F1)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; echo_cmd; bytecode_cmd; dse_cmd;
            resume_cmd; trace_cmd; cache_cmd; report_cmd; speedup_cmd;
            verify_cmd; fuzz_cmd; serve_cmd; federate_cmd; chaos_cmd;
            prof_cmd ]))
