(* The s2fa command-line tool.

     s2fa list
     s2fa compile  (-w KERNEL | -f FILE) [--design seed]
     s2fa dse      -w KERNEL [--mode s2fa|vanilla] [--seed N] [--minutes M]
                   [--shared-db] [--trace FILE] [--faults SPEC]
                   [--checkpoint FILE] [--ck-every M]
     s2fa resume   FILE                     (recover a --checkpoint snapshot)
     s2fa trace    FILE                     (replay a --trace JSONL file)
     s2fa cache    -w KERNEL [--seed N] [--minutes M]  (result-DB stats)
     s2fa report   -w KERNEL [--seed N]     (Table-2-style row)
     s2fa speedup  -w KERNEL [--tasks N]    (Fig-4-style row)
     s2fa verify   (-w KERNEL | --all) [--symbolic] [--chains N] [--seed N]
                   [--tasks N]              (prove/refute Merlin rewrites)
     s2fa serve    [--apps SPEC] [--policy P] [--devices N] [--seed N]
                   [--horizon S] [--faults SPEC] [--trace FILE]
                   [--metrics FILE]         (Prometheus text exposition)
                   [--slo-ms MS] [--hang-factor F] [--hedge] [--breaker]
                   [--checkpoint FILE] [--ck-every-s S]
     s2fa federate [--apps SPEC] [--clusters SPEC] [--regions SPEC]
                   [--route P] [--rtt-ms MS] [--autoscale]
                   [--retune-slo-ms MS] [--trace FILE]
                   (geo-sharded multi-cluster serving)
     s2fa chaos    [--seeds N] [--from SEED] [--fed]
                   (seeded fault/SLO campaigns)
     s2fa prof     FILE [--top N]           (replay a --profile span log)
     s2fa perf     diff OLD NEW [--threshold PCT]  (perf-trajectory gate)

   dse, verify, fuzz and serve also take --profile FILE: a hierarchical
   span log of the run (JSONL + FILE.folded flamegraph stacks), off by
   default and observer-effect-free when enabled.

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
module Perf = S2fa_obs.Perf
module Checkpoint = S2fa_telemetry.Checkpoint
open Cmdliner

let workload_arg =
  let doc = "Built-in kernel name (see `s2fa list`)." in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~doc)

let file_arg =
  let doc = "MiniScala source file with an Accelerator class." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~doc)

let seed_arg =
  let doc = "Random seed for the DSE." in
  Arg.(value & opt int 7 & info [ "seed" ] ~doc)

(* Rates, scales, horizons, intervals and time budgets: at 0 or below,
   or at nan, a run never starts, never ends or finds nothing, and at
   inf it never ends. *)
let finite_positive_float s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f && f > 0.0 -> Some f
  | _ -> None

(* A converter for a finite positive number of [units], as for `perf
   diff --threshold`: anything else is a usage error (exit 124) naming
   the flag. *)
let finite_positive what units =
  let parse s =
    match finite_positive_float s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "%s must be a finite positive number of %s, got %S"
              what units s))
  in
  Arg.conv (parse, Format.pp_print_float)

let horizon_arg default =
  let doc = "Arrival horizon in virtual seconds; finite and positive." in
  Arg.(
    value
    & opt (finite_positive "horizon" "seconds") default
    & info [ "horizon" ] ~doc)

let minutes_arg =
  let doc = "Simulated time budget in minutes; finite and positive." in
  Arg.(
    value
    & opt (finite_positive "time budget" "minutes") 240.0
    & info [ "minutes" ] ~doc)

let load_workload name =
  match W.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown kernel %s; try `s2fa list`\n" name;
    exit 1

let compiled_of ~workload ~file () =
  match (workload, file) with
  | Some name, _ ->
    let w = load_workload name in
    (Some w, W.compile w)
  | None, Some path ->
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    (None, S2fa.compile src)
  | None, None ->
    Printf.eprintf "one of -w or -f is required\n";
    exit 1

(* --trace FILE plumbing: a JSONL channel sink, plus a human-readable
   logs sink when S2FA_LOGS names a level ("debug", "info", ...). *)
let make_tracer path =
  let oc = open_out path in
  let sinks = [ Telemetry.channel_sink oc ] in
  let sinks =
    match Sys.getenv_opt "S2FA_LOGS" with
    | None | Some "" -> sinks
    | Some lvl ->
      let level =
        match Logs.level_of_string lvl with
        | Ok (Some l) -> l
        | _ -> Logs.Debug
      in
      Logs.set_reporter (Logs.format_reporter ());
      Logs.Src.set_level Telemetry.log_src (Some level);
      Telemetry.logs_sink ~level () :: sinks
  in
  (Telemetry.create ~sinks (), oc)

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
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

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
    Arg.(value & opt (some string) None & info [ "design" ] ~doc)
  in
  let run workload file design =
    let _, c = compiled_of ~workload ~file () in
    let design =
      match design with
      | None -> None
      | Some "area" -> Some (Seed.area_seed c.S2fa.c_dspace)
      | Some "perf" -> Some (Seed.performance_seed c.S2fa.c_dspace)
      | Some "structured" -> Some (Seed.structured_seed c.S2fa.c_dspace)
      | Some other ->
        Printf.eprintf "unknown design %s\n" other;
        exit 1
    in
    print_string (S2fa.emit_c ?design c)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a kernel to HLS C and print the generated code.")
    Term.(const run $ workload_arg $ file_arg $ design_arg)

(* ---------- echo ---------- *)

let echo_cmd =
  let run workload file =
    let w, c = compiled_of ~workload ~file () in
    ignore c;
    let src =
      match (w, file) with
      | Some w, _ -> w.W.w_source
      | None, Some path ->
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      | None, None -> assert false
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

(* --faults SPEC plumbing: parse, validate, and seed the injector with
   the DSE seed so the schedule is reproducible. *)
let make_injector ~seed spec_str =
  match Fault.parse_spec spec_str with
  | Ok spec -> Fault.create ~seed spec
  | Error m ->
    Printf.eprintf "bad --faults spec: %s\n" m;
    exit 1

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
    Arg.(value & opt string "s2fa" & info [ "mode" ] ~doc)
  in
  let shared_db_arg =
    let doc =
      "Share one HLS result database across all partitions and techniques \
       (duplicate design points cost a lookup, not a re-run)."
    in
    Arg.(value & flag & info [ "shared-db" ] ~doc)
  in
  let trace_arg =
    let doc =
      "Write a JSONL telemetry trace of the run (virtual-clock \
       timestamps; replay it with `s2fa trace FILE`)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let faults_arg =
    let doc =
      "Inject seeded tool failures, e.g. crash=0.05,hang=0.02,timeout=45 \
       (keys: crash, hang, transient, core_loss, timeout, retries, \
       backoff). Same seed and spec reproduce the same fault schedule."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Write a JSONL checkpoint of the DSE state, replaced every \
       --ck-every virtual minutes; recover it with `s2fa resume FILE`."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let ck_every_arg =
    let doc =
      "Virtual minutes between checkpoint snapshots. Must be a finite \
       positive number."
    in
    (* At 0 or below the snapshot loop would never end, and at nan or
       inf no snapshot would ever be written. *)
    Arg.(
      value
      & opt (finite_positive "checkpoint interval" "minutes") 30.0
      & info [ "ck-every" ] ~docv:"MINUTES" ~doc)
  in
  let run workload file mode seed minutes shared_db trace_file fault_spec
      ck_file ck_every profile =
    with_profile profile @@ fun () ->
    let tracer = Option.map make_tracer trace_file in
    let trace = Option.map fst tracer in
    let _, c = compiled_of ~workload ~file () in
    let rng = Rng.create seed in
    let db = if shared_db then Some (Resultdb.create ()) else None in
    let faults = Option.map (make_injector ~seed) fault_spec in
    let checkpoint =
      Option.map
        (fun path ->
          (* Everything `s2fa resume` needs to rebuild this run. *)
          let meta =
            List.concat
              [ (match workload with Some w -> [ ("workload", w) ] | None -> []);
                (match file with Some f -> [ ("file", f) ] | None -> []);
                [ ("seed", string_of_int seed);
                  ("minutes", string_of_float minutes);
                  ("shared_db", string_of_bool shared_db) ];
                (match fault_spec with
                | Some _ ->
                  [ ("faults",
                     Fault.spec_string (Fault.spec (Option.get faults))) ]
                | None -> []) ]
          in
          Driver.checkpoint_to ~meta ~every:ck_every path)
        ck_file
    in
    let result =
      match mode with
      | "s2fa" ->
        let opts =
          { Driver.default_s2fa_opts with Driver.so_time_limit = minutes }
        in
        S2fa.explore ~opts ?db ?trace ?faults ?checkpoint c rng
      | "vanilla" ->
        S2fa.explore_vanilla ~time_limit:minutes ?db ?trace ?faults
          ?checkpoint c rng
      | other ->
        Printf.eprintf "unknown mode %s\n" other;
        exit 1
    in
    print_dse_result result;
    (match ck_file with
    | Some path -> Printf.printf "# checkpoint: %s\n" path
    | None -> ());
    match (tracer, trace_file) with
    | Some (tr, oc), Some path ->
      close_out oc;
      Printf.printf "# trace: %d events -> %s\n" (Telemetry.emitted tr) path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "dse" ~doc:"Run design-space exploration on a kernel.")
    Term.(
      const run $ workload_arg $ file_arg $ mode_arg $ seed_arg $ minutes_arg
      $ shared_db_arg $ trace_arg $ faults_arg $ checkpoint_arg
      $ ck_every_arg $ profile_arg)

(* ---------- resume ---------- *)

(* Shared by `serve` and fleet `resume`: tenant-spec parsing and SLO
   assembly, so a resumed run rebuilds byte-identical inputs from the
   scalar parameters recorded in the checkpoint's meta. *)
let parse_tenants spec batch queue_cap =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map (fun item ->
         let parts = String.split_on_char ':' item in
         let num what v =
           match float_of_string_opt v with
           | Some f -> f
           | None ->
             Printf.eprintf "bad --apps item %S: %s %S is not a number\n"
               item what v;
             exit 1
         in
         let name, rate, weight =
           match parts with
           | [ n ] -> (n, 100.0, 1.0)
           | [ n; r ] -> (n, num "rate" r, 1.0)
           | [ n; r; w ] -> (n, num "rate" r, num "weight" w)
           | _ ->
             Printf.eprintf "bad --apps item %S (want NAME[:RATE[:WEIGHT]])\n"
               item;
             exit 1
         in
         if not (Float.is_finite rate && rate > 0.0) then begin
           Printf.eprintf
             "bad --apps item %S: rate must be a finite positive number\n" item;
           exit 1
         end;
         Traffic.tenant ~rate ~weight ~batch ~queue_cap (load_workload name))

let parse_policy name =
  match Fleet.policy_of_name name with
  | Some p -> p
  | None ->
    Printf.eprintf "unknown policy %s (want fcfs|sjf|affinity|fair)\n" name;
    exit 1

let slo_of ~hang_factor ~hedge ~breaker ~bk_failures ~bk_cooldown ~bk_probes =
  { Fleet.sl_hang_factor =
      (match hang_factor with Some f -> f | None -> infinity);
    sl_hedge = hedge;
    sl_breaker =
      (if breaker then
         Some
           { Fleet.bk_failures;
             bk_cooldown_s = bk_cooldown;
             bk_probes = bk_probes }
       else None) }

let deadline_requests slo_ms requests =
  match slo_ms with
  | None -> requests
  | Some ms -> Fleet.with_deadline (ms /. 1000.0) requests

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

(* Meta value [k] of checkpoint [path], decoded by [conv]. A value that
   does not decode names the file and the key, and exits 1. *)
let meta_value path meta conv what k =
  Option.map
    (fun v ->
      match conv v with
      | Some x -> x
      | None ->
        Printf.eprintf "%s: meta %S: %S is not %s\n" path k v what;
        exit 1)
    (List.assoc_opt k meta)

let meta_int path meta = meta_value path meta int_of_string_opt "an integer"
let meta_float path meta = meta_value path meta float_of_string_opt "a number"

(* Recover a mid-serve snapshot: rebuild the scenario from the
   checkpoint's meta, then replay-validate and run to completion. *)
let resume_fleet ck =
  fleet_or_exit @@ fun () ->
  let path = ck.Checkpoint.c_file in
  let snapshot = ok_or_exit (Fleet.snapshot_of_checkpoint ck) in
  let meta k = List.assoc_opt k snapshot.Fleet.fk_meta in
  let str k d = Option.value ~default:d (meta k) in
  let opt_float = meta_float path snapshot.Fleet.fk_meta in
  let int_of k d =
    Option.value ~default:d (meta_int path snapshot.Fleet.fk_meta k)
  in
  let float_of k d = Option.value ~default:d (opt_float k) in
  let horizon =
    meta_value path snapshot.Fleet.fk_meta finite_positive_float
      "a finite positive number" "horizon"
  in
  let batch = int_of "batch" 16 and queue_cap = int_of "queue_cap" 64 in
  let seed = int_of "seed" 7 in
  let tenants =
    parse_tenants (str "apps" "KMeans:400,LR:300") batch queue_cap
  in
  let policy = parse_policy (str "policy" "fcfs") in
  let faults = Option.map (fun s -> make_injector ~seed s) (meta "faults") in
  let slo =
    slo_of
      ~hang_factor:(opt_float "hang_factor")
      ~hedge:(meta "hedge" = Some "true")
      ~breaker:(meta "breaker" = Some "true")
      ~bk_failures:
        (int_of "breaker_failures" Fleet.default_breaker.Fleet.bk_failures)
      ~bk_cooldown:
        (float_of "breaker_cooldown_s"
           Fleet.default_breaker.Fleet.bk_cooldown_s)
      ~bk_probes:
        (int_of "breaker_probes" Fleet.default_breaker.Fleet.bk_probes)
  in
  let opts =
    { Fleet.default_opts with
      o_policy = policy;
      o_devices = int_of "devices" 2;
      o_slo = slo }
  in
  let apps = Traffic.apps ~seed tenants in
  let requests =
    deadline_requests (opt_float "slo_ms")
      (Traffic.requests ~seed ~horizon:(Option.value ~default:1.0 horizon)
         tenants)
  in
  let checkpoint =
    (* Keep refreshing the same file past the recovered snapshot. *)
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
  print_string (Fleet.report_to_string outcome.Fleet.oc_report);
  match faults with
  | Some f -> Format.printf "# faults: %a@." Fault.pp_stats (Fault.stats f)
  | None -> ()

let resume_cmd =
  let ck_file_arg =
    let doc =
      "Checkpoint written by `s2fa dse --checkpoint` or `s2fa serve \
       --checkpoint` (the header tells them apart)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT" ~doc)
  in
  let resume_dse ck =
    let path = ck.Checkpoint.c_file in
    let snapshot = ok_or_exit (Driver.ck_of_checkpoint ck) in
    let meta k = List.assoc_opt k snapshot.Driver.ck_meta in
    let workload = meta "workload" in
    let file = meta "file" in
    let seed =
      Option.value ~default:7 (meta_int path snapshot.Driver.ck_meta "seed")
    in
    let minutes =
      Option.value ~default:240.0
        (meta_value path snapshot.Driver.ck_meta finite_positive_float
           "a finite positive number" "minutes")
    in
    let shared_db = meta "shared_db" = Some "true" in
    let faults = Option.map (make_injector ~seed) (meta "faults") in
    let _, c = compiled_of ~workload ~file () in
    let rng = Rng.create seed in
    let db = if shared_db then Some (Resultdb.create ()) else None in
    let opts =
      { Driver.default_s2fa_opts with Driver.so_time_limit = minutes }
    in
    let checkpoint =
      (* Keep refreshing the same file past the recovered snapshot. *)
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
    let doc = "Batch size used for the comparison." in
    Arg.(value & opt (some int) None & info [ "tasks" ] ~doc)
  in
  let run workload seed tasks =
    let name =
      match workload with
      | Some n -> n
      | None ->
        Printf.eprintf "speedup needs -w\n";
        exit 1
    in
    let w = load_workload name in
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
    let doc = "Random design-space configs to check per kernel." in
    Arg.(value & opt int 2 & info [ "chains" ] ~doc)
  in
  let tasks_arg =
    let doc = "Task count the kernel is run with." in
    Arg.(value & opt int 2 & info [ "tasks" ] ~doc)
  in
  let run workload all symbolic chains seed tasks profile =
    with_profile profile @@ fun () ->
    let names =
      if all then List.map (fun (w : W.t) -> w.W.w_name) W.all
      else
        match workload with
        | Some n -> [ n ]
        | None ->
          Printf.eprintf "verify needs -w KERNEL or --all\n";
          exit 1
    in
    let proved = ref 0 and refuted = ref 0 in
    let unknown = ref 0 and skipped = ref 0 in
    List.iter
      (fun name ->
        let w = load_workload name in
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
      names;
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
    let doc = "Number of kernels (and C transform cases) to generate." in
    Arg.(value & opt int 200 & info [ "count" ] ~doc)
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
    Arg.(value & opt string "KMeans:400,LR:300" & info [ "apps" ] ~doc)
  in
  let policy_arg =
    let doc = "Scheduling policy: fcfs, sjf, affinity or fair." in
    Arg.(value & opt string "fcfs" & info [ "policy" ] ~doc)
  in
  let devices_arg =
    let doc = "Number of devices in the accelerator pool." in
    Arg.(value & opt int 2 & info [ "devices" ] ~doc)
  in
  let batch_arg =
    let doc = "Max requests per accelerator invocation." in
    Arg.(value & opt int 16 & info [ "batch" ] ~doc)
  in
  let queue_cap_arg =
    let doc = "Per-tenant queue bound before JVM overflow." in
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~doc)
  in
  let faults_arg =
    let doc = "Fault spec (core_loss=P kills devices mid-batch)." in
    Arg.(value & opt (some string) None & info [ "faults" ] ~doc)
  in
  let trace_arg =
    let doc = "Write a JSONL telemetry trace of the serving run." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc)
  in
  let metrics_arg =
    let doc =
      "Write the run's metrics registry and fleet report as a \
       Prometheus text exposition (counters, gauges, histograms)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let slo_ms_arg =
    let doc =
      "Per-request completion deadline in virtual milliseconds (measured \
       from arrival). Requests the pool cannot finish in time are shed \
       to the JVM path — they still complete, bit-identically."
    in
    Arg.(value & opt (some float) None & info [ "slo-ms" ] ~docv:"MS" ~doc)
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
    let doc =
      "Write a JSONL snapshot of the serve, replaced every --ck-every-s \
       virtual seconds; recover it with `s2fa resume FILE`."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let ck_every_arg =
    let doc = "Virtual seconds between serve snapshots." in
    Arg.(value & opt float 1.0 & info [ "ck-every-s" ] ~docv:"S" ~doc)
  in
  (* The fleet report's headline numbers, as gauges alongside the
     registry so one scrape file carries the whole run. *)
  let fleet_gauges (r : Fleet.report) =
    let b = Buffer.create 256 in
    let gauge name v =
      Buffer.add_string b
        (Printf.sprintf "# TYPE s2fa_fleet_%s gauge\ns2fa_fleet_%s %s\n" name
           name v)
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
    Buffer.contents b
  in
  let run apps_spec policy_name devices seed horizon batch queue_cap
      fault_spec trace_path metrics_path slo_ms hang_factor hedge breaker
      bk_failures bk_cooldown bk_probes ck_path ck_every profile =
    with_profile profile @@ fun () ->
    fleet_or_exit @@ fun () ->
    let policy = parse_policy policy_name in
    let tenants = parse_tenants apps_spec batch queue_cap in
    let tracer = Option.map make_tracer trace_path in
    let trace =
      (* --metrics without --trace still needs a tracer for the registry
         to populate; a sink-less one emits nothing. *)
      match (tracer, metrics_path) with
      | Some (tr, _), _ -> Some tr
      | None, Some _ -> Some (Telemetry.create ~sinks:[] ())
      | None, None -> None
    in
    let faults = Option.map (fun s -> make_injector ~seed s) fault_spec in
    let apps = Traffic.apps ~seed tenants in
    let requests =
      deadline_requests slo_ms (Traffic.requests ~seed ~horizon tenants)
    in
    let slo =
      slo_of ~hang_factor ~hedge ~breaker ~bk_failures ~bk_cooldown ~bk_probes
    in
    let opts =
      { Fleet.default_opts with
        o_policy = policy;
        o_devices = devices;
        o_slo = slo }
    in
    let checkpoint =
      Option.map
        (fun path ->
          (* Everything fleet `resume` needs to rebuild this scenario. *)
          let meta =
            List.concat
              [ [ ("apps", apps_spec);
                  ("policy", policy_name);
                  ("devices", string_of_int devices);
                  ("seed", string_of_int seed);
                  ("horizon", string_of_float horizon);
                  ("batch", string_of_int batch);
                  ("queue_cap", string_of_int queue_cap) ];
                (match fault_spec with
                | Some _ ->
                  [ ("faults",
                     Fault.spec_string (Fault.spec (Option.get faults))) ]
                | None -> []);
                (match slo_ms with
                | Some ms -> [ ("slo_ms", string_of_float ms) ]
                | None -> []);
                (match hang_factor with
                | Some f -> [ ("hang_factor", string_of_float f) ]
                | None -> []);
                (if hedge then [ ("hedge", "true") ] else []);
                (if breaker then
                   [ ("breaker", "true");
                     ("breaker_failures", string_of_int bk_failures);
                     ("breaker_cooldown_s", string_of_float bk_cooldown);
                     ("breaker_probes", string_of_int bk_probes) ]
                 else []) ]
          in
          { Fleet.cks_path = path; cks_every_s = ck_every; cks_meta = meta })
        ck_path
    in
    let outcome = Fleet.serve ~opts ?trace ?faults ?checkpoint apps requests in
    print_string (Fleet.report_to_string outcome.Fleet.oc_report);
    (match faults with
    | Some f -> Format.printf "# faults: %a@." Fault.pp_stats (Fault.stats f)
    | None -> ());
    (match ck_path with
    | Some path when Sys.file_exists path ->
      Printf.printf "# checkpoint: %s\n" path
    | Some path ->
      (* The run finished before the first --ck-every-s tick. *)
      Printf.printf "# checkpoint: %s not written (run shorter than \
                     --ck-every-s)\n"
        path
    | None -> ());
    (match (metrics_path, trace) with
    | Some path, Some tr ->
      let snap = Telemetry.Metrics.snapshot (Telemetry.metrics tr) in
      let oc = open_out path in
      output_string oc (Obs.prometheus_of_snapshot snap);
      output_string oc (fleet_gauges outcome.Fleet.oc_report);
      close_out oc;
      Printf.printf "# metrics: %s\n" path
    | _ -> ());
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
      const run $ apps_arg $ policy_arg $ devices_arg $ seed_arg
      $ horizon_arg 1.0
      $ batch_arg $ queue_cap_arg $ faults_arg $ trace_arg $ metrics_arg
      $ slo_ms_arg $ hang_factor_arg $ hedge_arg $ breaker_arg
      $ bk_failures_arg $ bk_cooldown_arg $ bk_probes_arg $ ck_arg
      $ ck_every_arg $ profile_arg)

(* ---------- federate ---------- *)

let federate_cmd =
  let apps_arg =
    let doc =
      "Tenants as NAME[:RATE[:WEIGHT]] items, comma-separated (see \
       `s2fa serve`). RATE is per region, scaled by each region's \
       multiplier."
    in
    Arg.(value & opt string "KMeans:300,LR:200" & info [ "apps" ] ~doc)
  in
  let clusters_arg =
    let doc =
      "Member pools as NAME[:DEVICES[:WEIGHT]] items, comma-separated \
       — e.g. 'east:2:1,west:3:2'."
    in
    Arg.(value & opt string "east:2,west:2" & info [ "clusters" ] ~doc)
  in
  let regions_arg =
    let doc =
      "Origin regions as NAME[:SCALE] items, comma-separated; SCALE \
       multiplies every tenant's arrival rate in that region (skewed \
       regional traffic)."
    in
    Arg.(value & opt string "east,west" & info [ "regions" ] ~doc)
  in
  let route_arg =
    let doc = "Routing policy: wrr, least-queue, cache-affinity or locality." in
    Arg.(value & opt string "wrr" & info [ "route" ] ~doc)
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
    let doc = "Per-request completion deadline in virtual milliseconds." in
    Arg.(value & opt (some float) None & info [ "slo-ms" ] ~docv:"MS" ~doc)
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
    let doc = "Write a JSONL telemetry trace of the federated run." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc)
  in
  let parse_clusters spec n_regions rtt_ms =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.mapi (fun ci item ->
           let parts = String.split_on_char ':' item in
           let num what v =
             match float_of_string_opt v with
             | Some f -> f
             | None ->
               Printf.eprintf "bad --clusters item %S: %s %S is not a number\n"
                 item what v;
               exit 1
           in
           let name, devices, weight =
             match parts with
             | [ n ] -> (n, 2, 1.0)
             | [ n; d ] -> (n, int_of_float (num "devices" d), 1.0)
             | [ n; d; w ] ->
               (n, int_of_float (num "devices" d), num "weight" w)
             | _ ->
               Printf.eprintf
                 "bad --clusters item %S (want NAME[:DEVICES[:WEIGHT]])\n" item;
               exit 1
           in
           let rtt_s =
             Array.init n_regions (fun ri ->
                 if ri = ci then 0.0 else rtt_ms /. 1000.0)
           in
           Fed.cluster ~devices ~weight ~rtt_s name)
  in
  let parse_regions spec =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun item ->
           match String.split_on_char ':' item with
           | [ n ] -> Traffic.region n
           | [ n; s ] -> (
             match float_of_string_opt s with
             | Some f when Float.is_finite f && f > 0.0 ->
               Traffic.region ~scale:f n
             | Some _ ->
               Printf.eprintf "bad --regions item %S: scale must be a finite \
                               positive number\n" item;
               exit 1
             | None ->
               Printf.eprintf "bad --regions item %S: scale %S is not a \
                               number\n" item s;
               exit 1)
           | _ ->
             Printf.eprintf "bad --regions item %S (want NAME[:SCALE])\n" item;
             exit 1)
  in
  let run apps_spec clusters_spec regions_spec route_name rtt_ms seed horizon
      slo_ms autoscale scale_max scale_interval retune_slo retune_epoch
      trace_path profile =
    with_profile profile @@ fun () ->
    let route =
      match Fed.route_of_name route_name with
      | Some r -> r
      | None ->
        Printf.eprintf
          "unknown route %s (want wrr|least-queue|cache-affinity|locality)\n"
          route_name;
        exit 1
    in
    let tenants = parse_tenants apps_spec 16 64 in
    let regions = parse_regions regions_spec in
    let clusters =
      parse_clusters clusters_spec (List.length regions) rtt_ms
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
      let reqs = Traffic.regional_requests ~seed ~horizon regions tenants in
      match slo_ms with
      | None -> reqs
      | Some ms ->
        List.map
          (fun (ri, (r : Fleet.request)) ->
            ( ri,
              { r with
                Fleet.rq_deadline =
                  Some (r.Fleet.rq_arrival +. (ms /. 1000.0)) } ))
          reqs
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
    Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc)
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
    if seeds <= 0 then begin
      Printf.eprintf "--seeds must be positive\n";
      exit 1
    end;
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
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
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

(* ---------- perf ---------- *)

let perf_cmd =
  let old_file_arg =
    let doc = "Baseline trajectory (a committed BENCH_<section>.json)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)
  in
  let new_file_arg =
    let doc = "Fresh trajectory to compare against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold_arg =
    let doc =
      "Relative slowdown (percent) a benchmark may show before the diff \
       counts it as a regression and exits non-zero. Must be a finite \
       non-negative number."
    in
    (* A custom conv so garbage ("abc", "-5", "nan") produces a usage
       message instead of an uncaught exception or a nonsense gate. *)
    let pct =
      let parse s =
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f >= 0.0 -> Ok f
        | Some _ ->
          Error
            (`Msg
               (Printf.sprintf
                  "threshold must be a finite non-negative percentage, got %s"
                  s))
        | None ->
          Error
            (`Msg
               (Printf.sprintf "threshold must be a number (percent), got %S"
                  s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(value & opt pct 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let diff_cmd =
    let run old_path new_path threshold =
      let p_old = ok_or_exit (Perf.load old_path) in
      let p_new = ok_or_exit (Perf.load new_path) in
      let d = Perf.diff ~threshold p_old p_new in
      Perf.print_diff Format.std_formatter ~threshold p_old p_new d;
      if d.Perf.d_regressions <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two BENCH_<section>.json trajectories; exit non-zero \
            when any benchmark regressed past --threshold. The CI perf \
            gate runs this against the committed baselines.")
      Term.(const run $ old_file_arg $ new_file_arg $ threshold_arg)
  in
  Cmd.group
    (Cmd.info "perf" ~doc:"Perf-trajectory tools (see `s2fa perf diff`).")
    [ diff_cmd ]

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
            prof_cmd; perf_cmd ]))
