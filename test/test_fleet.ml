(* Serving-simulator tests: the differential guarantee (every request's
   result is bit-identical to the standalone JVM baseline, whether it
   was accelerated, batched, overflowed to the JVM, or recovered from a
   dead device), determinism of the report and telemetry, fairness of
   the weighted policy, and the zero-traffic no-op. *)
module Rng = S2fa_util.Rng
module Interp = S2fa_jvm.Interp
module Blaze = S2fa_blaze.Blaze
module Fleet = S2fa_fleet.Fleet
module Traffic = S2fa_workloads.Traffic
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module T = S2fa_telemetry.Telemetry
module Fault = S2fa_fault.Fault
module Obs = S2fa_obs.Obs

(* Two tenants over distinct kernels, compiled once for the whole
   file. The KMeans/PR pair exercises both broadcast fields and the
   field-free path. *)
let tenants =
  lazy
    [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:200.0 ~weight:3.0 (Option.get (W.find "PR")) ]

let scenario =
  lazy
    (let ts = Lazy.force tenants in
     (Traffic.apps ~seed:11 ts, Traffic.requests ~seed:11 ~horizon:0.4 ts))

(* The standalone baseline of request [r]: one-record JVM execution of
   the tenant's kernel, exactly what the paper's un-accelerated Spark
   executor would compute. *)
let standalone (apps : Fleet.app array) (r : Fleet.request) =
  let a = apps.(r.Fleet.rq_app) in
  (Blaze.map_jvm a.Fleet.ap_cls ~fields:a.Fleet.ap_fields
     [| r.Fleet.rq_payload |]).Blaze.tr_values.(0)

let check_differential ?(msg = "request") apps requests
    (outcome : Fleet.outcome) =
  Alcotest.(check int)
    "every request completed exactly once"
    (List.length requests)
    (List.length outcome.Fleet.oc_results);
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (res : Fleet.result) ->
      Hashtbl.replace by_key (res.Fleet.rs_app, res.Fleet.rs_id) res)
    outcome.Fleet.oc_results;
  List.iter
    (fun (r : Fleet.request) ->
      match Hashtbl.find_opt by_key (r.Fleet.rq_app, r.Fleet.rq_id) with
      | None ->
        Alcotest.failf "%s (%d,%d) missing from results" msg r.Fleet.rq_app
          r.Fleet.rq_id
      | Some res ->
        if not (Interp.equal_value res.Fleet.rs_value (standalone apps r)) then
          Alcotest.failf "%s (%d,%d) diverged from the JVM baseline" msg
            r.Fleet.rq_app r.Fleet.rq_id)
    requests

(* ---------- the differential guarantee ---------- *)

let test_differential_all_policies () =
  let apps, requests = Lazy.force scenario in
  List.iter
    (fun policy ->
      let opts = { Fleet.default_opts with Fleet.o_policy = policy } in
      let outcome = Fleet.serve ~opts apps requests in
      check_differential ~msg:(Fleet.policy_name policy) apps requests outcome;
      Alcotest.(check bool)
        (Fleet.policy_name policy ^ " used the accelerators")
        true
        (outcome.Fleet.oc_report.Fleet.rp_batches > 0))
    Fleet.all_policies

let test_differential_under_overflow () =
  (* A tiny queue forces the overflow path; results must not change. *)
  let ts =
    List.map
      (fun tn -> { tn with Traffic.tn_queue_cap = 2; tn_batch = 2 })
      (Lazy.force tenants)
  in
  let apps = Traffic.apps ~seed:5 ts in
  let requests = Traffic.requests ~seed:5 ~horizon:0.4 ts in
  let outcome = Fleet.serve apps requests in
  check_differential ~msg:"overflowed" apps requests outcome;
  Alcotest.(check bool) "overflow happened" true
    (outcome.Fleet.oc_report.Fleet.rp_fallbacks > 0);
  Alcotest.(check bool) "some still accelerated" true
    (outcome.Fleet.oc_report.Fleet.rp_accelerated > 0)

let prop_differential_random_traffic =
  QCheck.Test.make ~name:"random traffic matches the JVM baseline" ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, pidx) ->
      let ts = Lazy.force tenants in
      let apps = Traffic.apps ~seed ts in
      let requests = Traffic.requests ~seed ~horizon:0.2 ts in
      let opts =
        { Fleet.default_opts with
          Fleet.o_policy = List.nth Fleet.all_policies pidx }
      in
      let outcome = Fleet.serve ~opts apps requests in
      List.length outcome.Fleet.oc_results = List.length requests
      && List.for_all
           (fun (r : Fleet.request) ->
             List.exists
               (fun (res : Fleet.result) ->
                 res.Fleet.rs_app = r.Fleet.rq_app
                 && res.Fleet.rs_id = r.Fleet.rq_id
                 && Interp.equal_value res.Fleet.rs_value (standalone apps r))
               outcome.Fleet.oc_results)
           requests)

(* ---------- determinism ---------- *)

let serve_with_jsonl ?(devices = 2) ?policy apps requests =
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let opts =
    { Fleet.default_opts with
      Fleet.o_devices = devices;
      o_policy = Option.value policy ~default:Fleet.default_opts.Fleet.o_policy }
  in
  let outcome = Fleet.serve ~opts ~trace apps requests in
  (outcome, Buffer.contents buf)

let test_determinism_report_and_trace () =
  let apps, requests = Lazy.force scenario in
  let o1, j1 = serve_with_jsonl apps requests in
  let o2, j2 = serve_with_jsonl apps requests in
  Alcotest.(check string)
    "byte-identical serving report"
    (Fleet.report_to_string o1.Fleet.oc_report)
    (Fleet.report_to_string o2.Fleet.oc_report);
  Alcotest.(check string) "byte-identical telemetry JSONL" j1 j2

let test_determinism_across_pool_sizes () =
  (* More devices change latencies, never results: the per-request
     values must agree between a 1-device and a 3-device pool. *)
  let apps, requests = Lazy.force scenario in
  let o1, _ = serve_with_jsonl ~devices:1 apps requests in
  let o3, _ = serve_with_jsonl ~devices:3 apps requests in
  List.iter2
    (fun (a : Fleet.result) (b : Fleet.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "request (%d,%d) value" a.Fleet.rs_app a.Fleet.rs_id)
        true
        (a.Fleet.rs_app = b.Fleet.rs_app
        && a.Fleet.rs_id = b.Fleet.rs_id
        && Interp.equal_value a.Fleet.rs_value b.Fleet.rs_value))
    o1.Fleet.oc_results o3.Fleet.oc_results

let test_tracing_zero_observer_effect () =
  let apps, requests = Lazy.force scenario in
  let traced, _ = serve_with_jsonl apps requests in
  let untraced = Fleet.serve apps requests in
  Alcotest.(check string) "report unchanged by tracing"
    (Fleet.report_to_string untraced.Fleet.oc_report)
    (Fleet.report_to_string traced.Fleet.oc_report)

(* ---------- zero traffic ---------- *)

let test_zero_traffic_noop () =
  let apps, _ = Lazy.force scenario in
  let sink, drain = T.collector () in
  let trace = T.create ~sinks:[ sink ] () in
  let outcome = Fleet.serve ~trace apps [] in
  let r = outcome.Fleet.oc_report in
  Alcotest.(check int) "no results" 0 (List.length outcome.Fleet.oc_results);
  Alcotest.(check int) "no requests" 0 r.Fleet.rp_requests;
  Alcotest.(check int) "no batches" 0 r.Fleet.rp_batches;
  Alcotest.(check int) "no reconfigs" 0 r.Fleet.rp_reconfigs;
  Alcotest.(check int) "no fallbacks" 0 r.Fleet.rp_fallbacks;
  Alcotest.(check (float 0.0)) "no makespan" 0.0 r.Fleet.rp_makespan;
  Alcotest.(check (float 0.0)) "no throughput" 0.0 r.Fleet.rp_throughput;
  Alcotest.(check (float 0.0)) "no unfairness" 0.0 r.Fleet.rp_fairness;
  Alcotest.(check int) "no events" 0 (List.length (drain ()))

(* ---------- policies ---------- *)

let test_policies_same_result_multiset () =
  (* Scheduling order may differ; the set of computed values may not. *)
  let apps, requests = Lazy.force scenario in
  let key (res : Fleet.result) =
    (res.Fleet.rs_app, res.Fleet.rs_id, res.Fleet.rs_value)
  in
  let baseline =
    List.map key (Fleet.serve apps requests).Fleet.oc_results
  in
  List.iter
    (fun policy ->
      let opts = { Fleet.default_opts with Fleet.o_policy = policy } in
      let got = List.map key (Fleet.serve ~opts apps requests).Fleet.oc_results in
      Alcotest.(check int)
        (Fleet.policy_name policy ^ " same completions")
        (List.length baseline) (List.length got);
      List.iter2
        (fun (a1, i1, v1) (a2, i2, v2) ->
          Alcotest.(check bool) "same (app,id,value)" true
            (a1 = a2 && i1 = i2 && Interp.equal_value v1 v2))
        baseline got)
    Fleet.all_policies

let test_affinity_reduces_reconfigs () =
  let apps, requests = Lazy.force scenario in
  let run policy =
    let opts = { Fleet.default_opts with Fleet.o_policy = policy } in
    (Fleet.serve ~opts apps requests).Fleet.oc_report.Fleet.rp_reconfigs
  in
  Alcotest.(check bool) "affinity <= fcfs reconfigs" true
    (run Fleet.Affinity <= run Fleet.Fcfs)

(* The weighted fair-share property: with every request backlogged at
   t=0 (so the scheduler, not the arrival process, decides everything),
   after any prefix of batch launches no app's share of dispatched work
   deviates from its weight by more than one batch. *)
let prop_fair_share_within_one_batch =
  QCheck.Test.make ~name:"fair share within one batch over any window"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let ts =
        List.map
          (fun tn -> { tn with Traffic.tn_queue_cap = 1_000 })
          (Lazy.force tenants)
      in
      let apps = Traffic.apps ~seed ts in
      let requests =
        List.map
          (fun (r : Fleet.request) -> { r with Fleet.rq_arrival = 0.0 })
          (Traffic.requests ~seed ~horizon:0.3 ts)
      in
      let sink, drain = T.collector ~capacity:100_000 () in
      let trace = T.create ~sinks:[ sink ] () in
      let opts = { Fleet.default_opts with Fleet.o_policy = Fleet.Fair } in
      ignore (Fleet.serve ~opts ~trace apps requests);
      let weights =
        Array.map (fun (a : Fleet.app) -> a.Fleet.ap_weight) apps
      in
      let wtotal = Array.fold_left ( +. ) 0.0 weights in
      let max_batch =
        Array.fold_left
          (fun m (a : Fleet.app) -> max m a.Fleet.ap_batch)
          1 apps
      in
      let dispatched = Array.make (Array.length apps) 0 in
      let names =
        Array.to_list (Array.map (fun (a : Fleet.app) -> a.Fleet.ap_name) apps)
      in
      let idx name =
        match List.find_index (String.equal name) names with
        | Some i -> i
        | None -> -1
      in
      let offered =
        Array.mapi
          (fun j _ ->
            List.length
              (List.filter
                 (fun (r : Fleet.request) -> r.Fleet.rq_app = j)
                 requests))
          dispatched
      in
      (* Check the invariant after every batch-launch prefix of the
         all-backlogged region: once any app's backlog runs dry, the
         others legitimately take over its share, so the weighted bound
         only applies while every queue still has work. *)
      List.for_all
        (fun (ev : T.event) ->
          match ev.T.e_kind with
          | T.Serve_batch { app; size; _ } ->
            let i = idx app in
            dispatched.(i) <- dispatched.(i) + size;
            let total = Array.fold_left ( + ) 0 dispatched in
            let all_backlogged =
              Array.for_all (fun x -> x)
                (Array.mapi (fun j d -> offered.(j) - d > 0) dispatched)
            in
            (not all_backlogged)
            || Array.for_all (fun x -> x)
                 (Array.mapi
                    (fun j d ->
                      Float.abs
                        (float_of_int d
                        -. (weights.(j) /. wtotal *. float_of_int total))
                      <= float_of_int max_batch +. 1e-9)
                    dispatched)
          | _ -> true)
        (drain ()))

(* ---------- faults ---------- *)

let test_device_loss_recovers () =
  let apps, requests = Lazy.force scenario in
  let inj = Fault.create ~seed:3 { Fault.zero_spec with Fault.fs_core_loss = 0.4 } in
  let outcome = Fleet.serve ~faults:inj apps requests in
  check_differential ~msg:"post-failover" apps requests outcome;
  let r = outcome.Fleet.oc_report in
  Alcotest.(check bool) "devices were lost" true (r.Fleet.rp_devices_lost > 0);
  Alcotest.(check bool) "in-flight work requeued" true (r.Fleet.rp_requeued > 0)

let test_zero_rate_faults_identical () =
  let apps, requests = Lazy.force scenario in
  let inj = Fault.create ~seed:3 Fault.zero_spec in
  let with_inj = Fleet.serve ~faults:inj apps requests in
  let without = Fleet.serve apps requests in
  Alcotest.(check string) "zero-rate injector is invisible"
    (Fleet.report_to_string without.Fleet.oc_report)
    (Fleet.report_to_string with_inj.Fleet.oc_report)

(* ---------- validation ---------- *)

let test_rejects_bad_config () =
  let apps, requests = Lazy.force scenario in
  (try
     ignore
       (Fleet.serve ~opts:{ Fleet.default_opts with Fleet.o_devices = 0 } apps
          requests);
     Alcotest.fail "empty pool must be rejected"
   with Fleet.Fleet_error _ -> ());
  try
    ignore
      (Fleet.serve apps
         [ { Fleet.rq_app = 99; rq_id = 0; rq_arrival = 0.0;
             rq_deadline = None; rq_payload = Interp.VInt 0 } ]);
    Alcotest.fail "unknown app must be rejected"
  with Fleet.Fleet_error _ -> ()

(* ---------- golden byte-compat (pre-SLO baseline) ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* dune runtest runs us in test/; a bare [dune exec] runs from the
   workspace root. Accept either. *)
let golden name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

(* The committed golden files hold the exact report and telemetry bytes
   the pre-SLO simulator (PR 5) produced for the fixture scenario. With
   the control plane disabled (the default), the current simulator must
   reproduce them byte for byte — new event kinds, report lines and
   RNG draws are all gated on the SLO being active. *)
let test_golden_pr5_byte_compat () =
  let apps, requests = Lazy.force scenario in
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let outcome = Fleet.serve ~trace apps requests in
  Alcotest.(check string)
    "report byte-identical to the PR-5 golden"
    (read_file (golden "serve_pr5.report"))
    (Fleet.report_to_string outcome.Fleet.oc_report);
  Alcotest.(check string)
    "telemetry byte-identical to the PR-5 golden"
    (read_file (golden "serve_pr5.jsonl"))
    (Buffer.contents buf)

(* ---------- slo control plane ---------- *)

let test_shed_all_matches_baseline () =
  (* A 2 s deadline is tighter than one cold 3 s reconfiguration, so
     every request sheds at admission — and still completes with a
     bit-identical JVM result. *)
  let apps, requests = Lazy.force scenario in
  let requests = Fleet.with_deadline 2.0 requests in
  let outcome = Fleet.serve apps requests in
  check_differential ~msg:"shed" apps requests outcome;
  let r = outcome.Fleet.oc_report in
  Alcotest.(check int) "everything shed" (List.length requests) r.Fleet.rp_shed;
  Alcotest.(check int) "no batches launched" 0 r.Fleet.rp_batches;
  Alcotest.(check int) "every deadline accounted"
    (List.length requests)
    (r.Fleet.rp_deadline_hits + r.Fleet.rp_deadline_misses)

let test_mixed_deadline_matches_baseline () =
  (* A 10 s deadline straddles the cold-start cost: early requests shed
     while the pool warms up, later ones are served on it. *)
  let apps, requests = Lazy.force scenario in
  let requests = Fleet.with_deadline 10.0 requests in
  let outcome = Fleet.serve apps requests in
  check_differential ~msg:"mixed-deadline" apps requests outcome;
  let r = outcome.Fleet.oc_report in
  Alcotest.(check bool) "some shed" true (r.Fleet.rp_shed > 0);
  Alcotest.(check bool) "some accelerated" true (r.Fleet.rp_accelerated > 0);
  Alcotest.(check int) "every deadline accounted"
    (List.length requests)
    (r.Fleet.rp_deadline_hits + r.Fleet.rp_deadline_misses)

let test_timeout_and_hedge_match_baseline () =
  let apps, requests = Lazy.force scenario in
  let slo = { Fleet.no_slo with Fleet.sl_hang_factor = 3.0; sl_hedge = true } in
  let inj =
    Fault.create ~seed:5 { Fault.zero_spec with Fault.fs_hang = 0.3 }
  in
  let outcome =
    Fleet.serve ~opts:{ Fleet.default_opts with Fleet.o_slo = slo }
      ~faults:inj apps requests
  in
  check_differential ~msg:"timed-out" apps requests outcome;
  let r = outcome.Fleet.oc_report in
  Alcotest.(check bool) "watchdog fired" true (r.Fleet.rp_timeouts > 0);
  Alcotest.(check bool) "a hedge launched" true (r.Fleet.rp_hedges > 0)

let test_breaker_trips_and_recovers () =
  let apps, requests = Lazy.force scenario in
  let slo =
    { Fleet.no_slo with
      Fleet.sl_hang_factor = 2.0;
      sl_breaker =
        Some { Fleet.bk_failures = 1; bk_cooldown_s = 1.0; bk_probes = 1 } }
  in
  let inj =
    Fault.create ~seed:5 { Fault.zero_spec with Fault.fs_hang = 0.5 }
  in
  let outcome =
    Fleet.serve ~opts:{ Fleet.default_opts with Fleet.o_slo = slo }
      ~faults:inj apps requests
  in
  check_differential ~msg:"post-quarantine" apps requests outcome;
  let r = outcome.Fleet.oc_report in
  Alcotest.(check bool) "breakers tripped" true (r.Fleet.rp_breaker_trips > 0);
  (* The run finished on a pool that kept readmitting devices, so work
     still landed on accelerators after the first trip. *)
  Alcotest.(check bool) "still accelerated" true (r.Fleet.rp_accelerated > 0)

let test_slo_determinism () =
  (* The control plane's sheds, timeouts, hedges and breaker moves all
     replay exactly: identical runs (fresh injectors, same seed) give
     byte-identical reports and telemetry. *)
  let apps, requests = Lazy.force scenario in
  let requests = Fleet.with_deadline 10.0 requests in
  let run () =
    let buf = Buffer.create 4096 in
    let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
    let slo =
      { Fleet.sl_hang_factor = 3.0;
        sl_hedge = true;
        sl_breaker = Some Fleet.default_breaker }
    in
    let inj =
      Fault.create ~seed:5 { Fault.zero_spec with Fault.fs_hang = 0.3 }
    in
    let outcome =
      Fleet.serve ~opts:{ Fleet.default_opts with Fleet.o_slo = slo }
        ~faults:inj ~trace apps requests
    in
    (Fleet.report_to_string outcome.Fleet.oc_report, Buffer.contents buf)
  in
  let r1, j1 = run () in
  let r2, j2 = run () in
  Alcotest.(check string) "byte-identical SLO report" r1 r2;
  Alcotest.(check string) "byte-identical SLO telemetry" j1 j2

(* ---------- checkpoint / resume ---------- *)

let outcome_fingerprint (oc : Fleet.outcome) =
  Fleet.report_to_string oc.Fleet.oc_report
  ^ String.concat ";"
      (List.map
         (fun (r : Fleet.result) ->
           Printf.sprintf "%d:%d:%s:%b" r.Fleet.rs_app r.Fleet.rs_id
             (T.Json.fstr r.Fleet.rs_done) r.Fleet.rs_accelerated)
         oc.Fleet.oc_results)

let test_checkpoint_resume_bit_identical () =
  (* Copy every snapshot the serve writes (the file is re-written in
     place each tick), then resume from each copy: every resumed
     outcome must be bit-identical to the uninterrupted run's. *)
  let apps, requests = Lazy.force scenario in
  let ck = Filename.temp_file "fleet" ".ck" in
  let copies = ref [] in
  let copy_sink =
    { T.on_event =
        (fun (ev : T.event) ->
          match ev.T.e_kind with
          | T.Checkpoint_written { path; _ } ->
            let dst = Printf.sprintf "%s.%d" path (List.length !copies) in
            Out_channel.with_open_bin dst (fun oc ->
                Out_channel.output_string oc (read_file path));
            copies := dst :: !copies
          | _ -> ());
      T.on_flush = ignore }
  in
  let trace = T.create ~sinks:[ copy_sink ] () in
  let spec =
    { Fleet.cks_path = ck; cks_every_s = 2.0; cks_meta = [ ("kind", "test") ] }
  in
  let uninterrupted = Fleet.serve ~trace ~checkpoint:spec apps requests in
  Alcotest.(check bool) "several mid-serve snapshots" true
    (List.length !copies >= 3);
  let want = outcome_fingerprint uninterrupted in
  List.iter
    (fun path ->
      match Fleet.load_checkpoint path with
      | Error m -> Alcotest.failf "load %s: %s" path m
      | Ok snapshot ->
        Alcotest.(check bool)
          "fleet checkpoints are recognized" true
          (String.starts_with ~prefix:"{\"ck\":\"fleet\""
             (List.hd snapshot.Fleet.fk_lines));
        let got = Fleet.resume ~snapshot apps requests in
        Alcotest.(check string)
          (Printf.sprintf "resume from event %d bit-identical"
             snapshot.Fleet.fk_events)
          want (outcome_fingerprint got))
    !copies;
  (* A resume whose configuration disagrees with the snapshot header
     must be rejected up front, not silently diverge. *)
  (match Fleet.load_checkpoint (List.hd !copies) with
  | Error m -> Alcotest.fail m
  | Ok snapshot -> (
    try
      ignore
        (Fleet.resume
           ~opts:{ Fleet.default_opts with Fleet.o_devices = 3 }
           ~snapshot apps requests);
      Alcotest.fail "mismatched pool size must be rejected"
    with Fleet.Fleet_error _ -> ()));
  List.iter Sys.remove (ck :: !copies)

(* ---------- front-requeue discipline (PR-3 failover) ---------- *)

let test_front_requeue_preserves_order () =
  (* Under repeated device loss, in-flight requests re-queue at the
     FRONT of their app's deque, so within an app the accelerated
     completions stay in arrival order (FCFS): sort them by completion
     time and the ids must still be increasing. Back-of-queue requeue
     would let younger ids overtake the recovered ones. *)
  let apps, requests = Lazy.force scenario in
  let inj =
    Fault.create ~seed:3 { Fault.zero_spec with Fault.fs_core_loss = 0.4 }
  in
  let opts = { Fleet.default_opts with Fleet.o_devices = 3 } in
  let outcome = Fleet.serve ~opts ~faults:inj apps requests in
  let r = outcome.Fleet.oc_report in
  Alcotest.(check bool) "repeated losses" true (r.Fleet.rp_devices_lost >= 2);
  Alcotest.(check bool) "in-flight work requeued" true
    (r.Fleet.rp_requeued > 0);
  check_differential ~msg:"front-requeued" apps requests outcome;
  Array.iteri
    (fun a _ ->
      let ids =
        List.filter
          (fun (x : Fleet.result) ->
            x.Fleet.rs_app = a && x.Fleet.rs_accelerated)
          outcome.Fleet.oc_results
        |> List.sort (fun (x : Fleet.result) (y : Fleet.result) ->
               compare (x.Fleet.rs_done, x.Fleet.rs_id)
                 (y.Fleet.rs_done, y.Fleet.rs_id))
        |> List.map (fun (x : Fleet.result) -> x.Fleet.rs_id)
      in
      let rec increasing = function
        | a :: b :: tl -> a < b && increasing (b :: tl)
        | _ -> true
      in
      Alcotest.(check bool)
        (Printf.sprintf "app %d completion order = arrival order" a)
        true (increasing ids))
    apps

(* ---------- policy name round-trip ---------- *)

let prop_policy_name_roundtrip =
  QCheck.Test.make ~name:"policy_of_name inverts policy_name" ~count:20
    QCheck.(int_range 0 3)
    (fun i ->
      let p = List.nth Fleet.all_policies i in
      Fleet.policy_of_name (Fleet.policy_name p) = Some p)

let prop_policy_of_name_total =
  QCheck.Test.make ~name:"policy_of_name total on arbitrary strings"
    ~count:200 QCheck.string
    (fun s ->
      match Fleet.policy_of_name s with
      | Some p -> String.equal (Fleet.policy_name p) s
      | None ->
        List.for_all
          (fun p -> not (String.equal (Fleet.policy_name p) s))
          Fleet.all_policies)

(* ---------- slo / request validation ---------- *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    if i + nl > hl then false
    else String.sub haystack i nl = needle || scan (i + 1)
  in
  scan 0

let expect_fleet_error what substring f =
  match f () with
  | _ -> Alcotest.failf "%s must be rejected" what
  | exception Fleet.Fleet_error m ->
    if not (contains_substring m substring) then
      Alcotest.failf "%s: error %S does not mention %S" what m substring

let test_rejects_bad_weights_and_deadlines () =
  let apps, requests = Lazy.force scenario in
  let with_weight w =
    Array.mapi
      (fun i (a : Fleet.app) ->
        if i = 0 then { a with Fleet.ap_weight = w } else a)
      apps
  in
  expect_fleet_error "zero weight" "positive" (fun () ->
      Fleet.serve (with_weight 0.0) requests);
  expect_fleet_error "nan weight" "finite" (fun () ->
      Fleet.serve (with_weight Float.nan) requests);
  expect_fleet_error "infinite weight" "finite" (fun () ->
      Fleet.serve (with_weight Float.infinity) requests);
  expect_fleet_error "nan deadline" "finite" (fun () ->
      Fleet.serve apps
        [ { Fleet.rq_app = 0; rq_id = 0; rq_arrival = 0.0;
            rq_deadline = Some Float.nan;
            rq_payload = (List.hd requests).Fleet.rq_payload } ]);
  expect_fleet_error "non-positive deadline offset" "positive" (fun () ->
      Fleet.with_deadline 0.0 requests);
  expect_fleet_error "nan deadline offset" "finite" (fun () ->
      Fleet.with_deadline Float.nan requests)

let test_rejects_bad_slo_specs () =
  let apps, requests = Lazy.force scenario in
  let serve_slo slo =
    Fleet.serve ~opts:{ Fleet.default_opts with Fleet.o_slo = slo } apps
      requests
  in
  expect_fleet_error "hang factor 1.0" "hang factor" (fun () ->
      serve_slo { Fleet.no_slo with Fleet.sl_hang_factor = 1.0 });
  expect_fleet_error "nan hang factor" "hang factor" (fun () ->
      serve_slo { Fleet.no_slo with Fleet.sl_hang_factor = Float.nan });
  expect_fleet_error "zero breaker failures" "breaker" (fun () ->
      serve_slo
        { Fleet.no_slo with
          Fleet.sl_breaker =
            Some { Fleet.default_breaker with Fleet.bk_failures = 0 } });
  expect_fleet_error "zero breaker cooldown" "breaker" (fun () ->
      serve_slo
        { Fleet.no_slo with
          Fleet.sl_breaker =
            Some { Fleet.default_breaker with Fleet.bk_cooldown_s = 0.0 } });
  expect_fleet_error "zero breaker probes" "breaker" (fun () ->
      serve_slo
        { Fleet.no_slo with
          Fleet.sl_breaker =
            Some { Fleet.default_breaker with Fleet.bk_probes = 0 } });
  expect_fleet_error "zero checkpoint interval" "checkpoint" (fun () ->
      Fleet.serve
        ~checkpoint:
          { Fleet.cks_path = "/tmp/never-written"; cks_every_s = 0.0;
            cks_meta = [] }
        apps requests)

(* ---------- traffic generator ---------- *)

let test_traffic_reproducible () =
  let ts = Lazy.force tenants in
  let r1 = Traffic.requests ~seed:42 ~horizon:0.3 ts in
  let r2 = Traffic.requests ~seed:42 ~horizon:0.3 ts in
  Alcotest.(check int) "same count" (List.length r1) (List.length r2);
  List.iter2
    (fun (a : Fleet.request) (b : Fleet.request) ->
      Alcotest.(check bool) "identical request" true
        (a.Fleet.rq_app = b.Fleet.rq_app
        && a.Fleet.rq_id = b.Fleet.rq_id
        && a.Fleet.rq_arrival = b.Fleet.rq_arrival
        && Interp.equal_value a.Fleet.rq_payload b.Fleet.rq_payload))
    r1 r2

let test_traffic_tenant_independence () =
  (* Dropping the second tenant must not perturb the first tenant's
     arrivals or payloads. *)
  let ts = Lazy.force tenants in
  let both = Traffic.requests ~seed:9 ~horizon:0.3 ts in
  let alone = Traffic.requests ~seed:9 ~horizon:0.3 [ List.hd ts ] in
  let first_of l =
    List.filter (fun (r : Fleet.request) -> r.Fleet.rq_app = 0) l
  in
  List.iter2
    (fun (a : Fleet.request) (b : Fleet.request) ->
      Alcotest.(check bool) "identical arrival stream" true
        (a.Fleet.rq_id = b.Fleet.rq_id
        && a.Fleet.rq_arrival = b.Fleet.rq_arrival
        && Interp.equal_value a.Fleet.rq_payload b.Fleet.rq_payload))
    (first_of both) (first_of alone)

let test_traffic_sorted_and_in_horizon () =
  let ts = Lazy.force tenants in
  let rs = Traffic.requests ~seed:4 ~horizon:0.25 ts in
  let rec sorted = function
    | (a : Fleet.request) :: (b : Fleet.request) :: tl ->
      a.Fleet.rq_arrival <= b.Fleet.rq_arrival && sorted (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "sorted by arrival" true (sorted rs);
  Alcotest.(check bool) "within horizon" true
    (List.for_all
       (fun (r : Fleet.request) ->
         r.Fleet.rq_arrival >= 0.0 && r.Fleet.rq_arrival < 0.25)
       rs)

(* ---------- profiling ---------- *)

(* Dispatch runs the HLS estimate, which charges its modeled tool
   minutes to the profiler's virtual clock; the serve loop's later spans
   must still carry serving time, inside the [fleet.serve] root. *)
let test_profiled_spans_inside_root () =
  let ts = [ Traffic.tenant ~rate:400.0 ~weight:1.0 (Option.get (W.find "KMeans")) ] in
  let apps = Traffic.apps ~seed:7 ts in
  let requests = Traffic.requests ~seed:7 ~horizon:0.05 ts in
  let p = Obs.Profiler.create () in
  let outcome = Obs.with_profiler p (fun () -> Fleet.serve apps requests) in
  Alcotest.(check bool) "several batches" true
    (outcome.Fleet.oc_report.Fleet.rp_batches > 2);
  let spans = Obs.Profiler.spans p in
  let root =
    List.find (fun s -> s.Obs.Profiler.sp_name = "fleet.serve") spans
  in
  List.iter
    (fun (s : Obs.Profiler.span) ->
      if s.Obs.Profiler.sp_vbegin > root.Obs.Profiler.sp_vend then
        Alcotest.failf "%s begins at %g vmin, after fleet.serve ends at %g"
          s.Obs.Profiler.sp_name s.Obs.Profiler.sp_vbegin
          root.Obs.Profiler.sp_vend)
    spans

(* The profiler's [hls.evals] total over every completed span. *)
let hls_evals p =
  List.fold_left
    (fun n (s : Obs.Profiler.span) ->
      n
      + Option.value ~default:0
          (List.assoc_opt "hls.evals" s.Obs.Profiler.sp_counters))
    0 (Obs.Profiler.spans p)

(* Sizing a batch and dispatching it read one HLS estimate, the
   registration's: once per (tenant, batch size), and once more after a
   promotion re-registers that tenant only. *)
let test_one_estimate_per_app_and_size () =
  let apps, requests = Lazy.force scenario in
  let sink, drain = T.collector () in
  let trace = T.create ~sinks:[ sink ] () in
  let p = Obs.Profiler.create () in
  ignore (Obs.with_profiler p (fun () -> Fleet.serve ~trace apps requests));
  let sized =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : T.event) ->
           match e.T.e_kind with
           | T.Serve_batch { app; size; _ } -> Some (app, size)
           | _ -> None)
         (drain ()))
  in
  Alcotest.(check bool) "several batch sizes" true (List.length sized > 2);
  Alcotest.(check int) "one estimate per (app, size)" (List.length sized)
    (hls_evals p);
  let p = Obs.Profiler.create () in
  Obs.with_profiler p @@ fun () ->
  let sim = Fleet.make_sim apps [] in
  (* One request of [app] arriving now, served to completion: a batch
     of one. *)
  let serve_one app id =
    let r = List.find (fun r -> r.Fleet.rq_app = app) requests in
    sim.Fleet.s_inject
      { r with Fleet.rq_id = id; rq_arrival = sim.Fleet.s_now () };
    while sim.Fleet.s_step () do
      ()
    done
  in
  serve_one 0 0;
  serve_one 1 1;
  Alcotest.(check int) "each tenant's size estimated once" 2 (hls_evals p);
  sim.Fleet.s_update_app 0 apps.(0);
  serve_one 1 2;
  Alcotest.(check int) "the other tenant's estimate is kept" 2 (hls_evals p);
  serve_one 0 3;
  Alcotest.(check int) "the promoted tenant's is made once more" 3
    (hls_evals p);
  Alcotest.(check int) "four requests accelerated" 4
    (sim.Fleet.s_finish ()).Fleet.oc_report.Fleet.rp_accelerated

let () =
  Alcotest.run "fleet"
    [ ( "differential",
        [ Alcotest.test_case "all policies match JVM baseline" `Quick
            test_differential_all_policies;
          Alcotest.test_case "overflow path matches too" `Quick
            test_differential_under_overflow;
          QCheck_alcotest.to_alcotest prop_differential_random_traffic ] );
      ( "golden",
        [ Alcotest.test_case "SLO-disabled run matches PR-5 bytes" `Quick
            test_golden_pr5_byte_compat ] );
      ( "slo",
        [ Alcotest.test_case "tight deadlines shed everything" `Quick
            test_shed_all_matches_baseline;
          Alcotest.test_case "mixed deadlines still differential" `Quick
            test_mixed_deadline_matches_baseline;
          Alcotest.test_case "timeouts and hedges still differential" `Quick
            test_timeout_and_hedge_match_baseline;
          Alcotest.test_case "breaker trips and recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "SLO runs byte-reproducible" `Quick
            test_slo_determinism ] );
      ( "checkpoint",
        [ Alcotest.test_case "resume from any snapshot bit-identical" `Quick
            test_checkpoint_resume_bit_identical ] );
      ( "determinism",
        [ Alcotest.test_case "report and JSONL byte-identical" `Quick
            test_determinism_report_and_trace;
          Alcotest.test_case "results independent of pool size" `Quick
            test_determinism_across_pool_sizes;
          Alcotest.test_case "tracing has zero observer effect" `Quick
            test_tracing_zero_observer_effect;
          Alcotest.test_case "zero traffic is a no-op" `Quick
            test_zero_traffic_noop;
          Alcotest.test_case "profiled spans inside the serve root" `Quick
            test_profiled_spans_inside_root;
          Alcotest.test_case "one estimate per app and batch size" `Quick
            test_one_estimate_per_app_and_size ] );
      ( "policies",
        [ Alcotest.test_case "same result multiset" `Quick
            test_policies_same_result_multiset;
          Alcotest.test_case "affinity reduces reconfigs" `Quick
            test_affinity_reduces_reconfigs;
          QCheck_alcotest.to_alcotest prop_fair_share_within_one_batch ] );
      ( "faults",
        [ Alcotest.test_case "device loss recovers" `Quick
            test_device_loss_recovers;
          Alcotest.test_case "zero-rate injector invisible" `Quick
            test_zero_rate_faults_identical;
          Alcotest.test_case "front-requeue preserves FCFS order" `Quick
            test_front_requeue_preserves_order ] );
      ( "validation",
        [ Alcotest.test_case "bad configs rejected" `Quick
            test_rejects_bad_config;
          Alcotest.test_case "bad weights and deadlines rejected" `Quick
            test_rejects_bad_weights_and_deadlines;
          Alcotest.test_case "bad SLO specs rejected" `Quick
            test_rejects_bad_slo_specs;
          QCheck_alcotest.to_alcotest prop_policy_name_roundtrip;
          QCheck_alcotest.to_alcotest prop_policy_of_name_total ] );
      ( "traffic",
        [ Alcotest.test_case "byte-reproducible schedule" `Quick
            test_traffic_reproducible;
          Alcotest.test_case "tenant independence" `Quick
            test_traffic_tenant_independence;
          Alcotest.test_case "sorted, in horizon" `Quick
            test_traffic_sorted_and_in_horizon ] ) ]
