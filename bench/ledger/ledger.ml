(* The perf ledger: one seeded end-to-end benchmark over the repo's
   user-facing paths, with a traced mode that splits host time and work
   into layers. See README.md for the workloads, metrics and bounds.

     ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--traced] [--json FILE]
     ledger.exe --smoke

   The last line of standard output is one JSON object,
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}},
   carrying the end-to-end metrics, or with --trace 1 the per-layer
   ones. *)

module M = Measure
module Stats = S2fa_util.Stats
module Workloads = S2fa_workloads.Workloads

let workloads =
  [ Dse_sweep.workload; Serving.serve_1k; Serving.fed_mixed;
    Verify_sym.workload ]

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Reported by every workload with tracing off. An op is a DSE run, a
   simulated request or a proof. *)
let end_to_end =
  [ ("setup_s", "s", Lower); ("heap_peak_mb", "MB", Lower);
    ("ops_per_s", "1/s", Higher) ]

(* Deterministic outcomes of each workload: identical on every unit of
   one seed. They vary too much from seed to seed to carry a regression
   bound, so they ride with the per-layer metrics. *)
let outcomes =
  [ ("dse_vmin_total", "vmin", Lower);
    ("dse_vmin_to_best", "vmin", Lower);
    ("dse_qor_vs_manual", "ratio", Higher);
    ("vlat_p50_ms", "vms", Lower);
    ("vlat_p99_ms", "vms", Lower);
    ("accel_share", "ratio", Higher);
    ("proved_share", "ratio", Higher) ]

(* Where a per-layer value comes from. Host seconds are reported as a
   share of the phase they were spent in, so the layers of one phase add
   up to it, and a layer a workload never reaches reads 0 % rather than
   a time that never moves. *)
type source =
  | Count of string
      (** A deterministic count or ratio from the traced units (else from
          set-up), 0 when the workload has none. *)
  | Rate of string   (** A host-measured rate from the traced units. *)
  | Share of string  (** Seconds of a layer, % of the untraced unit. *)
  | Setup_share of string  (** Seconds of a set-up phase, % of set-up. *)
  | Overhead         (** Traced vs untraced unit time, %. *)
  | Outcome          (** One of [outcomes]. *)

(* Reported by every workload in the traced run. *)
let per_layer =
  let count ?(better = Lower) name = (name, "count", better, Count name) in
  let share name key = (name, "%", Lower, Share key) in
  [ ("trace.overhead_pct", "%", Lower, Overhead);
    ("workloads.compile_pct", "%", Lower, Setup_share "workloads.compile_s");
    ("workloads.traffic_pct", "%", Lower, Setup_share "workloads.traffic_s");
    ("merlin.setup_pct", "%", Lower, Setup_share "merlin.setup_s");
    share "merlin.apply_pct" "merlin.apply_s";
    count "merlin.calls";
    share "hls.estimate_pct" "hls.estimate_s";
    count "hls.evals";
    share "dse.self_pct" "dse.self_s";
    count "dse.evals";
    count "dse.offline_evals";
    count "dse.partitions";
    count ~better:Higher "dse.stop_entropy";
    count "dse.stop_time";
    ("tuner.feasible_ratio", "ratio", Higher, Count "tuner.feasible_ratio");
    share "serde.pct" "serde.s";
    ("serde.bytes", "B", Lower, Count "serde.bytes");
    share "cinterp.pct" "cinterp.s";
    count "cinterp.tasks";
    share "blaze.accel_pct" "blaze.accel_s";
    share "jvm.fallback_pct" "jvm.fallback_s";
    count "jvm.fallbacks";
    share "fleet.core_pct" "fleet.core_s";
    count "fleet.events";
    count "fleet.batches";
    count ~better:Higher "fleet.mean_batch";
    count "fleet.reconfigs";
    ( "federation.cross_region_share", "ratio", Lower,
      Count "federation.cross_region_share" );
    count "federation.autoscale_actions";
    count "federation.retunes";
    count "federation.retune_evals";
    share "dse.retune_pct" "dse.retune_s";
    share "sym.equiv_pct" "sym.equiv_s" ]
  @ List.map
      (fun (w : Workloads.t) ->
        let k = w.Workloads.w_name in
        share ("sym.equiv_pct." ^ k) ("sym.equiv_s." ^ k))
      Workloads.all
  @ [ count "sym.nodes";
      count "sym.steps";
      count "sym.paths";
      ("sym.nodes_per_s", "1/s", Higher, Rate "sym.nodes_per_s") ]
  @ List.map (fun (name, unit, better) -> (name, unit, better, Outcome)) outcomes

(* Set-up is timed in batches of at least [setup_batch_seconds], one
   batch before every timed unit, and at least [setup_min_times] times in
   all. Contention on a shared host comes in windows of a fraction of a
   second; spreading the set-ups over the whole run keeps their median
   from following whichever window they happened to land in. *)
let setup_batch_seconds = 0.1

let setup_min_times = 5

(* ---------- command line ---------- *)

type args = {
  workload : string option;
  seed : int;
  seconds : float option;
  traced : bool;
  json : string option;
  smoke : bool;
}

let usage =
  "usage: ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--traced] [--json FILE]\n\
  \       ledger.exe --smoke\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : M.workload) -> w.M.name) workloads)

let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "ledger: %s\n%s\n" m usage;
      exit 2)
    fmt

let parse_args argv =
  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let rec go a = function
    | [] -> a
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--traced" :: rest -> go { a with traced = true } rest
    | "--workload" :: v :: rest ->
      if not (List.exists (fun (w : M.workload) -> w.M.name = v) workloads)
      then die "--workload: unknown workload %S" v;
      go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> (
      match if digits v then int_of_string_opt v else None with
      | Some n -> go { a with seed = n } rest
      | None -> die "--seed: want a non-negative integer, got %S" v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when Float.is_finite s && s > 0.0 ->
        go { a with seconds = Some s } rest
      | _ -> die "--seconds: want a positive number, got %S" v)
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { a with traced = false } rest
      | "1" -> go { a with traced = true } rest
      | _ -> die "--trace: want 0 or 1, got %S" v)
    | "--json" :: v :: rest -> go { a with json = Some v } rest
    | [ (("--workload" | "--seed" | "--seconds" | "--trace" | "--json") as f) ]
      ->
      die "%s needs a value" f
    | f :: _ -> die "unknown flag %S" f
  in
  go
    { workload = None; seed = 7; seconds = None; traced = false; json = None;
      smoke = false }
    (List.tl (Array.to_list argv))

(* ---------- one measured run ---------- *)

type row = {
  name : string;
  unit : string;
  better : better;
  sum : M.summary;
}

type result = {
  rows : row list;      (** Printed, and written by [--json]. *)
  headline : row list;  (** The last line's metrics. *)
  attempted : int;
  failed : int;
  deterministic : bool;
  digest : string;
}

let row (name, unit, better) samples =
  { name; unit; better; sum = M.summarize (Array.of_list samples) }

let same_exact (a : M.outcome) (b : M.outcome) =
  String.equal a.M.digest b.M.digest
  && List.length a.M.exact = List.length b.M.exact
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && M.bits_equal v1 v2)
       a.M.exact b.M.exact

(* Deterministic layers of two traced units must be identical. *)
let same_counts l1 l2 =
  List.for_all
    (fun (_, _, _, src) ->
      match src with
      | Count k -> List.assoc_opt k l1 = List.assoc_opt k l2
      | _ -> true)
    per_layer

(* Units until [seconds] have passed (at least two), or [min_units]
   units when no time is given; [before] runs ahead of each. *)
let run_units ~seconds ~min_units ~before f =
  let t0 = Monotonic_clock.now () in
  let rec go acc n =
    let more =
      match seconds with
      | None -> n < min_units
      | Some s -> n < 2 || M.seconds_since t0 < s
    in
    if more then begin
      before ();
      Gc.full_major ();
      go (f () :: acc) (n + 1)
    end
    else List.rev acc
  in
  go [] 0

let measure (wl : M.workload) ~seed ~seconds ~traced =
  let inst = wl.M.setup ~seed ~smoke:false (M.laps ()) in
  (* One untimed warm-up unit; it is also the reference every later unit
     must reproduce exactly. The heap peak is read right after it: OCaml
     5.1 never compacts, so a later reading would grow with the number of
     units the time budget allowed. *)
  let warm = inst.M.unit_ () in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let setups = ref [] in
  let setup_batch () =
    let t0 = Monotonic_clock.now () in
    let rec go first =
      if first || M.seconds_since t0 < setup_batch_seconds then begin
        Gc.full_major ();
        let l = M.laps () in
        let (_ : M.instance), dt =
          M.time (fun () -> wl.M.setup ~seed ~smoke:false l)
        in
        setups := (dt, l) :: !setups;
        go false
      end
    in
    go true
  in
  let budget = Option.map (fun s -> if traced then s /. 2.0 else s) seconds in
  let untraced =
    run_units ~seconds:budget ~min_units:wl.M.units ~before:setup_batch
      inst.M.unit_
  in
  let secs os = List.map (fun o -> o.M.seconds) os in
  let untraced_s = Stats.median (Array.of_list (secs untraced)) in
  let traced_units =
    if traced then
      run_units ~seconds:budget ~min_units:2 ~before:setup_batch (fun () ->
          inst.M.traced ~untraced_s)
    else []
  in
  while List.length !setups < setup_min_times do
    setup_batch ()
  done;
  let setup_s = List.rev_map fst !setups in
  let setup_laps = List.map snd !setups in
  let units = (warm :: untraced) @ List.map fst traced_units in
  let counts_repeat =
    match List.map snd traced_units with
    | [] -> true
    | l :: ls -> List.for_all (same_counts l) ls
  in
  let rows, headline =
    if not traced then begin
      let samples = function
        | "setup_s" -> setup_s
        | "heap_peak_mb" -> [ heap_mb ]
        | "ops_per_s" ->
          List.map (fun o -> float_of_int o.M.ops /. o.M.seconds) untraced
        | name -> failwith ("no source for end-to-end metric " ^ name)
      in
      let headline =
        List.map (fun ((name, _, _) as m) -> row m (samples name)) end_to_end
      in
      let ops = Array.concat (List.map (fun o -> o.M.op_seconds) untraced) in
      ( headline
        @ [ row ("unit_s", "s", Lower) (secs untraced) ]
        @ (if Array.length ops = 0 then []
           else [ row ("op_s", "s", Lower) (Array.to_list ops) ])
        @ List.filter_map
            (fun ((name, _, _) as m) ->
              Option.map (fun v -> row m [ v ]) (List.assoc_opt name warm.M.exact))
            outcomes,
        headline )
    end
    else begin
      let traced_s = Stats.median (Array.of_list (secs (List.map fst traced_units))) in
      let traced_values k =
        List.map
          (fun (_, ls) -> Option.value ~default:0.0 (List.assoc_opt k ls))
          traced_units
      in
      let setup_values k = List.map (fun l -> M.get l k) setup_laps in
      let median xs = Stats.median (Array.of_list xs) in
      let pct base xs = List.map (fun x -> 100.0 *. x /. base) xs in
      let samples name = function
        | Overhead -> [ 100.0 *. (traced_s -. untraced_s) /. untraced_s ]
        | Outcome ->
          [ Option.value ~default:0.0 (List.assoc_opt name warm.M.exact) ]
        | Count k ->
          if List.exists (fun (_, ls) -> List.mem_assoc k ls) traced_units then
            traced_values k
          else [ median (setup_values k) ]
        | Rate k -> traced_values k
        | Share k -> pct untraced_s (traced_values k)
        | Setup_share k -> pct (median setup_s) (setup_values k)
      in
      let layers =
        List.map
          (fun (name, unit, better, src) ->
            row (name, unit, better) (samples name src))
          per_layer
      in
      (* The raw seconds behind each share, for the printout and --json. *)
      let seconds =
        List.filter_map
          (fun (_, _, _, src) ->
            match src with
            | Share k -> Some (row (k, "s", Lower) (traced_values k))
            | Setup_share k -> Some (row (k, "s", Lower) (setup_values k))
            | _ -> None)
          per_layer
      in
      ((row ("setup_s", "s", Lower) setup_s :: layers) @ seconds, layers)
    end
  in
  { rows;
    headline;
    attempted = List.fold_left (fun n o -> n + o.M.ops) 0 units;
    failed = List.fold_left (fun n o -> n + o.M.failed) 0 units;
    deterministic = List.for_all (same_exact warm) units && counts_repeat;
    digest = warm.M.digest }

(* ---------- output ---------- *)

let print_rows (r : result) =
  Printf.printf "%-30s %16s %-6s %-6s %14s %14s %4s %s\n" "metric" "median"
    "unit" "better" "q1" "q3" "n" "tail";
  List.iter
    (fun row ->
      let s = row.sum in
      Printf.printf "%-30s %16.6g %-6s %-6s %14.6g %14.6g %4d %s\n" row.name
        s.M.median row.unit (better_name row.better) s.M.q1 s.M.q3 s.M.n
        (match s.M.tail with
        | Some (p, v) -> Printf.sprintf "p%g=%.6g" p v
        | None -> "-"))
    r.rows

(* A writer only: numbers print with all their digits, non-finite ones
   as null. *)
let jfloat x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let jstr s = S2fa_telemetry.Telemetry.Json.quote s

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let jarr items = "[" ^ String.concat ", " items ^ "]"

let write_json path ~workload ~seed ~traced (r : result) =
  let record row =
    let s = row.sum in
    jobj
      [ ("workload", jstr workload);
        ("metric", jstr row.name);
        ("unit", jstr row.unit);
        ("better", jstr (better_name row.better));
        ("median", jfloat s.M.median);
        ("q1", jfloat s.M.q1);
        ("q3", jfloat s.M.q3);
        ("n", string_of_int s.M.n);
        ( "tail",
          match s.M.tail with
          | Some (p, v) -> jobj [ ("p", jfloat p); ("value", jfloat v) ]
          | None -> "null" );
        ("samples", jarr (Array.to_list (Array.map jfloat s.M.samples))) ]
  in
  let oc = open_out path in
  output_string oc
    (jobj
       [ ("workload", jstr workload);
         ("seed", string_of_int seed);
         ("traced", string_of_bool traced);
         ("ops", string_of_int r.attempted);
         ("ops_failed", string_of_int r.failed);
         ("digest", jstr r.digest);
         ("records", jarr (List.map record r.rows)) ]);
  output_char oc '\n';
  close_out oc

let last_line (r : result) =
  jobj
    [ ("correct", string_of_bool (r.failed = 0 && r.deterministic));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        jobj
          (List.map
             (fun row ->
               ( row.name,
                 jobj
                   [ ("value", jfloat row.sum.M.median); ("unit", jstr row.unit) ]
               ))
             r.headline) ) ]

(* ---------- smoke ---------- *)

(* Small sizes of every workload, each unit run twice untraced and twice
   traced in one process: every check must pass, and every exact metric,
   digest and deterministic layer must repeat. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (wl : M.workload) ->
      let inst, dt =
        M.time (fun () -> wl.M.setup ~seed:7 ~smoke:true (M.laps ()))
      in
      let u1 = inst.M.unit_ () in
      let u2 = inst.M.unit_ () in
      let t1, l1 = inst.M.traced ~untraced_s:u1.M.seconds in
      let t2, l2 = inst.M.traced ~untraced_s:u1.M.seconds in
      List.iter
        (fun (name, _) ->
          if
            not
              (List.exists
                 (fun (_, _, _, src) ->
                   match src with
                   | Count k | Rate k | Share k -> k = name
                   | _ -> false)
                 per_layer)
          then
            failwith ("layer missing from the per-layer table: " ^ name))
        l1;
      let failed = u1.M.failed + u2.M.failed + t1.M.failed + t2.M.failed in
      let repeat = List.for_all (same_exact u1) [ u2; t1; t2 ] && same_counts l1 l2 in
      if failed > 0 || not repeat then ok := false;
      Printf.printf "smoke %-10s set-up %.2fs, %d ops/unit, %d failed, %s\n"
        wl.M.name dt u1.M.ops failed
        (if repeat then "deterministic" else "NOT DETERMINISTIC"))
    workloads;
  if not !ok then exit 1

(* ---------- main ---------- *)

(* Both variables change the program being measured: one swaps the
   fleet's event engine, the other turns on host-clock span profiling. *)
let refuse_env () =
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf
          "ledger: refusing to run with %s set: it changes the program being \
           measured\n"
          v;
        exit 2
      end)
    [ "S2FA_FLEET_ENGINE"; "S2FA_PROFILE_HOST" ]

let () =
  let a = parse_args Sys.argv in
  refuse_env ();
  if a.smoke then smoke ()
  else
    match a.workload with
    | None -> die "--workload is required"
    | Some name ->
      let wl = List.find (fun (w : M.workload) -> w.M.name = name) workloads in
      let r = measure wl ~seed:a.seed ~seconds:a.seconds ~traced:a.traced in
      Printf.printf
        "# ledger %s seed=%d traced=%b attempted=%d failed=%d \
         deterministic=%b digest=%s\n"
        name a.seed a.traced r.attempted r.failed r.deterministic r.digest;
      print_rows r;
      Option.iter
        (fun path ->
          write_json path ~workload:name ~seed:a.seed ~traced:a.traced r)
        a.json;
      print_endline (last_line r);
      if r.failed > 0 || not r.deterministic then exit 1
