(* Differential harness for the shared HLS result database.

   The Resultdb contract has two halves:
   - determinism: memoized and direct evaluation agree exactly on every
     design point's measured quality and feasibility (a hit never changes
     what SDx would have said);
   - clock: a hit costs zero simulated minutes (a DB read, not an HLS
     run), so a DSE with the database finishes no later than the same DSE
     without it, and finishes at exactly the same virtual time when no
     duplicate occurs.

   These tests prove both halves by running the same flows with and
   without the database under identical RNG seeds. *)

module Rng = S2fa_util.Rng
module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Driver = S2fa_dse.Driver
module Dspace = S2fa_dse.Dspace
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa

let compiled = lazy (List.map (fun w -> (w, W.compile w)) W.all)

let kmeans = lazy (W.compile (Option.get (W.find "KMeans")))

(* ---------- database unit behaviour ---------- *)

let demo_cfg =
  Space.of_list [ ("par", Space.VInt 8); ("pipe", Space.VStr "on") ]

let demo_result = { Tuner.e_perf = 3.5; e_feasible = true; e_minutes = 7.0 }

let test_miss_then_hit () =
  let db = Resultdb.create () in
  Alcotest.(check bool) "miss" true (Resultdb.lookup db demo_cfg = None);
  Resultdb.insert db demo_cfg demo_result;
  (match Resultdb.lookup db demo_cfg with
  | None -> Alcotest.fail "expected a hit"
  | Some r ->
    Alcotest.(check (float 0.0)) "same perf" 3.5 r.Tuner.e_perf;
    Alcotest.(check bool) "same feasibility" true r.Tuner.e_feasible;
    Alcotest.(check (float 0.0)) "hit costs zero minutes" 0.0
      r.Tuner.e_minutes);
  let s = Resultdb.snapshot db in
  Alcotest.(check int) "one hit" 1 s.Resultdb.sn_hits;
  Alcotest.(check int) "one miss" 1 s.Resultdb.sn_misses;
  Alcotest.(check int) "one insert" 1 s.Resultdb.sn_inserts;
  Alcotest.(check (float 0.0)) "saved the stored minutes" 7.0
    s.Resultdb.sn_minutes_saved

let test_key_is_canonical () =
  let db = Resultdb.create () in
  Resultdb.insert db demo_cfg demo_result;
  (* The same point with fields in the other order must be the same key. *)
  let swapped =
    Space.of_list [ ("pipe", Space.VStr "on"); ("par", Space.VInt 8) ]
  in
  Alcotest.(check bool) "order-insensitive hit" true
    (Resultdb.lookup db swapped <> None)

let test_first_write_wins () =
  let db = Resultdb.create () in
  Resultdb.insert db demo_cfg demo_result;
  Resultdb.insert db demo_cfg { demo_result with Tuner.e_perf = 99.0 };
  (match Resultdb.peek db demo_cfg with
  | Some e ->
    Alcotest.(check (float 0.0)) "first result kept" 3.5
      e.Resultdb.en_result.Tuner.e_perf
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "re-insert not counted" 1
    (Resultdb.snapshot db).Resultdb.sn_inserts

let demo_detail =
  { Resultdb.d_cycles = 1000.0;
    d_freq_mhz = 250.0;
    d_lut_pct = 0.1;
    d_ff_pct = 0.1;
    d_bram_pct = 0.2;
    d_dsp_pct = 0.05 }

let test_detail_attach_after_insert () =
  let db = Resultdb.create () in
  Resultdb.insert db demo_cfg demo_result;
  Resultdb.attach_detail db demo_cfg demo_detail;
  match Resultdb.peek db demo_cfg with
  | Some { Resultdb.en_detail = Some d; _ } ->
    Alcotest.(check (float 0.0)) "cycles" 1000.0 d.Resultdb.d_cycles
  | _ -> Alcotest.fail "detail not attached"

let test_detail_attach_before_insert () =
  (* S2fa_core.objective attaches detail while the tuner is still holding
     the result; the insert that follows must pick the pending detail up. *)
  let db = Resultdb.create () in
  Resultdb.attach_detail db demo_cfg demo_detail;
  Resultdb.insert db demo_cfg demo_result;
  match Resultdb.peek db demo_cfg with
  | Some { Resultdb.en_detail = Some d; _ } ->
    Alcotest.(check (float 0.0)) "freq" 250.0 d.Resultdb.d_freq_mhz
  | _ -> Alcotest.fail "pending detail lost"

let test_memoize_evaluates_once () =
  let db = Resultdb.create () in
  let calls = ref 0 in
  let f _ = incr calls; demo_result in
  let r1 = Resultdb.memoize db f demo_cfg in
  let r2 = Resultdb.memoize db f demo_cfg in
  Alcotest.(check int) "one real evaluation" 1 !calls;
  Alcotest.(check (float 0.0)) "same perf" r1.Tuner.e_perf r2.Tuner.e_perf;
  Alcotest.(check (float 0.0)) "miss pays minutes" 7.0 r1.Tuner.e_minutes;
  Alcotest.(check (float 0.0)) "hit is free" 0.0 r2.Tuner.e_minutes

(* ---------- the duplicate-proposal fallback costs a lookup ---------- *)

let tiny_space = Space.make [ Space.PEnum ("pipe", [ "off"; "on" ]) ]

let test_fallback_duplicates_cost_lookups () =
  (* A 2-point space forces the 16-retry fallback in Tuner.propose to
     return already-seen points. With the DB those re-proposals must be
     served from the cache: the objective runs at most once per distinct
     point, and the duplicate steps report zero minutes. *)
  let calls = ref 0 in
  let objective cfg =
    incr calls;
    { Tuner.e_perf = (if Space.get_str cfg "pipe" = "on" then 1.0 else 2.0);
      e_feasible = true;
      e_minutes = 5.0 }
  in
  let db = Resultdb.create () in
  let t = Tuner.create ~db tiny_space objective (Rng.create 3) in
  let outcomes = List.init 10 (fun _ -> Tuner.step t) in
  Alcotest.(check int) "10 steps counted" 10 (Tuner.evaluated t);
  Alcotest.(check int) "at most 2 real evaluations" 2 !calls;
  let dup_minutes =
    List.filteri (fun i _ -> i >= 2) outcomes
    |> List.fold_left (fun acc o -> acc +. o.Tuner.o_minutes) 0.0
  in
  Alcotest.(check (float 0.0)) "duplicates are free" 0.0 dup_minutes;
  Alcotest.(check bool) "exhausted after covering the space" true
    (Tuner.exhausted t)

let test_without_db_duplicates_rerun () =
  (* The seed behaviour (no DB): the same scenario re-runs the objective
     on every duplicate — this is exactly the waste the DB removes. *)
  let calls = ref 0 in
  let objective _ =
    incr calls;
    { Tuner.e_perf = 1.0; e_feasible = true; e_minutes = 5.0 }
  in
  let t = Tuner.create tiny_space objective (Rng.create 3) in
  for _ = 1 to 10 do ignore (Tuner.step t) done;
  Alcotest.(check int) "every duplicate re-ran" 10 !calls

(* ---------- (a) memoized vs direct agree on random points ---------- *)

let prop_memoized_agrees_all_workloads =
  QCheck.Test.make ~name:"memoized = direct on random points, 8 workloads"
    ~count:6
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun ((w : W.t), c) ->
          let rng = Rng.create seed in
          let cfg = Space.random_cfg rng c.S2fa.c_dspace.Dspace.ds_space in
          let direct = S2fa.objective ~tasks:w.W.w_tasks c cfg in
          let db = Resultdb.create () in
          let memo =
            Resultdb.memoize db (S2fa.objective ~tasks:w.W.w_tasks ~db c)
          in
          let miss = memo cfg in
          let hit = memo cfg in
          (* Exact agreement, including infinities on infeasible points. *)
          compare miss.Tuner.e_perf direct.Tuner.e_perf = 0
          && miss.Tuner.e_feasible = direct.Tuner.e_feasible
          && miss.Tuner.e_minutes = direct.Tuner.e_minutes
          && compare hit.Tuner.e_perf direct.Tuner.e_perf = 0
          && hit.Tuner.e_feasible = direct.Tuner.e_feasible
          && hit.Tuner.e_minutes = 0.0
          && (* the objective enriched the entry with the estimator tuple *)
          (match Resultdb.peek db cfg with
          | Some { Resultdb.en_detail = Some _; _ } -> true
          | _ -> false))
        (Lazy.force compiled))

(* ---------- (b) + (c): full differential DSE ---------- *)

(* Options under which the search trajectory is fully determined by the
   RNG seed alone: the stop rule counts evaluations (not minutes) and the
   time budget never binds, so with and without the DB the flows must
   visit exactly the same design points in the same order. *)
let unbounded_opts =
  { Driver.default_s2fa_opts with
    Driver.so_stop = `Trivial 8;
    so_time_limit = 1e7 }

let check_same_best name plain shared =
  match (plain.Driver.rr_best, shared.Driver.rr_best) with
  | Some (a, pa), Some (b, pb) ->
    Alcotest.(check string) (name ^ ": best design identical") (Space.key a)
      (Space.key b);
    Alcotest.(check bool)
      (name ^ ": best objective value bit-identical")
      true (compare pa pb = 0)
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one flow found a best, the other did not")

let test_differential_dse_identical_results () =
  let c = Lazy.force kmeans in
  List.iter
    (fun seed ->
      let plain = S2fa.explore ~opts:unbounded_opts c (Rng.create seed) in
      let db = Resultdb.create () in
      let shared =
        S2fa.explore ~opts:unbounded_opts ~db c (Rng.create seed)
      in
      let name = Printf.sprintf "seed %d" seed in
      check_same_best name plain shared;
      Alcotest.(check int) (name ^ ": same evaluation count")
        plain.Driver.rr_evals shared.Driver.rr_evals;
      (* Every evaluated point's quality is bit-identical, in order. *)
      List.iter2
        (fun (p : Driver.event) (s : Driver.event) ->
          Alcotest.(check bool) (name ^ ": same qualities") true
            (compare p.Driver.ev_perf s.Driver.ev_perf = 0
            && p.Driver.ev_feasible = s.Driver.ev_feasible))
        plain.Driver.rr_events shared.Driver.rr_events;
      (* Clock contract: never later; equal when nothing was duplicated. *)
      Alcotest.(check bool) (name ^ ": clock never later") true
        (shared.Driver.rr_minutes <= plain.Driver.rr_minutes);
      match shared.Driver.rr_cache with
      | None -> Alcotest.fail "shared run lost its cache stats"
      | Some s ->
        if s.Resultdb.sn_hits = 0 then
          Alcotest.(check (float 0.0)) (name ^ ": no duplicates, equal clock")
            plain.Driver.rr_minutes shared.Driver.rr_minutes
        else
          Alcotest.(check bool) (name ^ ": hits saved simulated minutes") true
            (s.Resultdb.sn_minutes_saved > 0.0))
    [ 3; 7; 21 ]

let test_fig3_kernel_strictly_fewer_duplicates () =
  (* Acceptance check on a Fig. 3 kernel under the paper's own settings:
     the DB-less flow pays for duplicate evaluations (the hits of the
     shared run), the shared flow pays zero — a strictly lower duplicate
     count — and the quality of the result does not move. *)
  let c = Lazy.force kmeans in
  let plain = S2fa.explore c (Rng.create 7) in
  let db = Resultdb.create () in
  let shared = S2fa.explore ~db c (Rng.create 7) in
  check_same_best "fig3 kmeans" plain shared;
  Alcotest.(check bool) "clock never later" true
    (shared.Driver.rr_minutes <= plain.Driver.rr_minutes);
  match shared.Driver.rr_cache with
  | None -> Alcotest.fail "no cache stats"
  | Some s ->
    Alcotest.(check bool) "the DB-less flow re-ran duplicates" true
      (s.Resultdb.sn_hits > 0);
    Alcotest.(check bool) "strictly positive virtual minutes saved" true
      (s.Resultdb.sn_minutes_saved > 0.0)

let test_warm_db_rerun_strictly_faster () =
  (* Sharing the DB across experiments: a second exploration over a warm
     database (here: same kernel, different seed already explored) must
     finish strictly earlier on the virtual clock — its partition seeds
     and any re-visited points are free — while returning exactly the
     result a cold run under its own seed returns. *)
  let c = Lazy.force kmeans in
  let cold = S2fa.explore ~opts:unbounded_opts c (Rng.create 7) in
  let db = Resultdb.create () in
  ignore (S2fa.explore ~opts:unbounded_opts ~db c (Rng.create 1));
  let warm = S2fa.explore ~opts:unbounded_opts ~db c (Rng.create 7) in
  check_same_best "warm rerun" cold warm;
  Alcotest.(check int) "same evaluation count" cold.Driver.rr_evals
    warm.Driver.rr_evals;
  Alcotest.(check bool) "strictly lower virtual clock" true
    (warm.Driver.rr_minutes < cold.Driver.rr_minutes);
  match warm.Driver.rr_cache with
  | Some s ->
    Alcotest.(check bool) "cross-run hits" true (s.Resultdb.sn_hits > 0)
  | None -> Alcotest.fail "no cache stats"

(* ---------- tiny-space termination and clock dominance ---------- *)

let demo_space =
  Space.make
    [ Space.PPow2 ("par", 1, 64); Space.PEnum ("pipe", [ "off"; "on" ]) ]

let demo_dspace =
  Dspace.make ~space:demo_space ~loop_ids:[] ~task_loop:0 ~inner_ids:[]
    ~buffers:[]

let demo_objective cfg =
  let par = Space.get_int cfg "par" in
  { Tuner.e_perf = 100.0 /. float_of_int par;
    e_feasible = par <= 32;
    e_minutes = 5.0 }

let test_vanilla_tiny_space_terminates_early () =
  (* 14 points, 4 cores, 60 minutes: the DB-less baseline burns the whole
     budget re-running duplicates; with the DB the driver stops once the
     space is exhausted instead of spinning on free hits. *)
  let plain =
    Driver.run_vanilla ~cores:4 ~time_limit:60.0 demo_dspace demo_objective
      (Rng.create 44)
  in
  let db = Resultdb.create () in
  let shared =
    Driver.run_vanilla ~cores:4 ~time_limit:60.0 ~db demo_dspace
      demo_objective (Rng.create 44)
  in
  Alcotest.(check (float 1e-9)) "plain burns the budget" 60.0
    plain.Driver.rr_minutes;
  Alcotest.(check bool) "shared stops strictly earlier" true
    (shared.Driver.rr_minutes < plain.Driver.rr_minutes);
  Alcotest.(check bool) "no more entries than points" true
    (Resultdb.length db <= 14);
  (* Both flows still find the same optimum of the tiny space. *)
  check_same_best "tiny space" plain shared

let test_s2fa_tiny_space_terminates () =
  let db = Resultdb.create () in
  let opts =
    { Driver.default_s2fa_opts with
      Driver.so_stop = `Time_only;
      so_time_limit = 500.0;
      so_samples = 10 }
  in
  (* Time_only + shared DB on an exhaustible space: termination relies on
     the driver's exhaustion guard. *)
  let r = Driver.run_s2fa ~opts ~db demo_dspace demo_objective (Rng.create 9) in
  Alcotest.(check bool) "terminated with a best" true (r.Driver.rr_best <> None)

let test_dynamic_tiny_space_terminates () =
  let db = Resultdb.create () in
  let opts =
    { Driver.default_s2fa_opts with
      Driver.so_time_limit = 500.0;
      so_samples = 10 }
  in
  let r =
    Driver.run_dynamic ~opts ~db demo_dspace demo_objective (Rng.create 9)
  in
  Alcotest.(check bool) "terminated with a best" true (r.Driver.rr_best <> None)

(* ---------- property: clock dominance on the synthetic space ---------- *)

let prop_clock_never_later =
  QCheck.Test.make ~name:"vanilla clock with DB <= without, any seed"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let plain =
        Driver.run_vanilla ~cores:4 ~time_limit:40.0 demo_dspace
          demo_objective (Rng.create seed)
      in
      let db = Resultdb.create () in
      let shared =
        Driver.run_vanilla ~cores:4 ~time_limit:40.0 ~db demo_dspace
          demo_objective (Rng.create seed)
      in
      shared.Driver.rr_minutes <= plain.Driver.rr_minutes)

let () =
  Alcotest.run "resultdb"
    [ ( "db",
        [ Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "canonical keys" `Quick test_key_is_canonical;
          Alcotest.test_case "first write wins" `Quick test_first_write_wins;
          Alcotest.test_case "detail after insert" `Quick
            test_detail_attach_after_insert;
          Alcotest.test_case "detail before insert" `Quick
            test_detail_attach_before_insert;
          Alcotest.test_case "memoize evaluates once" `Quick
            test_memoize_evaluates_once ] );
      ( "fallback",
        [ Alcotest.test_case "duplicates cost lookups" `Quick
            test_fallback_duplicates_cost_lookups;
          Alcotest.test_case "seed behaviour re-runs" `Quick
            test_without_db_duplicates_rerun ] );
      ( "differential",
        [ Alcotest.test_case "identical results, 3 seeds" `Slow
            test_differential_dse_identical_results;
          Alcotest.test_case "fig3 kernel: fewer duplicates" `Slow
            test_fig3_kernel_strictly_fewer_duplicates;
          Alcotest.test_case "warm rerun strictly faster" `Slow
            test_warm_db_rerun_strictly_faster;
          Alcotest.test_case "vanilla tiny space" `Quick
            test_vanilla_tiny_space_terminates_early;
          Alcotest.test_case "s2fa tiny space" `Quick
            test_s2fa_tiny_space_terminates;
          Alcotest.test_case "dynamic tiny space" `Quick
            test_dynamic_tiny_space_terminates ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_memoized_agrees_all_workloads; prop_clock_never_later ] ) ]
