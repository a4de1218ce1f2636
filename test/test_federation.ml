(* Federation tests: the 1-cluster identity differential (a trivial
   federation is byte-identical to plain Fleet.serve — report, JSONL
   trace, results), multi-cluster determinism across runs, the
   JVM-oracle and no-request-dropped contracts under
   routing/autoscaling, the online-DSE loop demonstrably improving a
   breaching tenant's p99, regional traffic stream independence, and
   the seeded federation chaos campaign. *)
module Rng = S2fa_util.Rng
module Interp = S2fa_jvm.Interp
module Blaze = S2fa_blaze.Blaze
module Fleet = S2fa_fleet.Fleet
module Fed = S2fa_federation.Federation
module Traffic = S2fa_workloads.Traffic
module Chaos = S2fa_workloads.Chaos
module W = S2fa_workloads.Workloads
module S2fa = S2fa_core.S2fa
module T = S2fa_telemetry.Telemetry

let tenants =
  lazy
    [ Traffic.tenant ~rate:300.0 ~weight:1.0 (Option.get (W.find "KMeans"));
      Traffic.tenant ~rate:200.0 ~weight:3.0 (Option.get (W.find "PR")) ]

let regions = lazy [ Traffic.region "east"; Traffic.region ~scale:2.0 "west" ]

let scenario =
  lazy
    (let ts = Lazy.force tenants in
     ( Traffic.apps ~seed:11 ts,
       Traffic.regional_requests ~seed:11 ~horizon:0.4 (Lazy.force regions)
         ts ))

let standalone (apps : Fleet.app array) (r : Fleet.request) =
  let a = apps.(r.Fleet.rq_app) in
  (Blaze.map_jvm a.Fleet.ap_cls ~fields:a.Fleet.ap_fields
     [| r.Fleet.rq_payload |]).Blaze.tr_values.(0)

let fed_serve ?(opts = Fed.default_opts) ~clusters apps requests =
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let tenants = Array.to_list (Array.map Fed.tenant apps) in
  let outcome = Fed.serve ~opts ~trace ~clusters tenants requests in
  T.flush trace;
  (outcome, Buffer.contents buf)

let two_clusters =
  [ Fed.cluster ~devices:2 ~weight:1.0 ~rtt_s:[| 0.0; 0.002 |] "east";
    Fed.cluster ~devices:2 ~weight:1.0 ~rtt_s:[| 0.002; 0.0 |] "west" ]

(* ---------- the identity differential ---------- *)

(* A single-cluster federation with zero RTT and both control loops
   off is the degenerate case: it must reproduce plain [Fleet.serve]
   byte for byte — same report, same JSONL trace, same results. *)
let test_identity_differential () =
  let ts = Lazy.force tenants in
  let apps = Traffic.apps ~seed:11 ts in
  let requests = Traffic.requests ~seed:11 ~horizon:0.4 ts in
  let fbuf = Buffer.create 4096 in
  let ftrace = T.create ~sinks:[ T.buffer_sink fbuf ] () in
  let plain = Fleet.serve ~trace:ftrace apps requests in
  T.flush ftrace;
  let fed, fed_jsonl =
    fed_serve
      ~clusters:[ Fed.cluster ~devices:2 "solo" ]
      apps
      (List.map (fun r -> (0, r)) requests)
  in
  Alcotest.(check string)
    "JSONL trace byte-identical"
    (Buffer.contents fbuf) fed_jsonl;
  (match fed.Fed.fo_report.Fed.fr_clusters with
  | [ c ] ->
    Alcotest.(check string)
      "member fleet report byte-identical"
      (Fleet.report_to_string plain.Fleet.oc_report)
      (Fleet.report_to_string c.Fed.cr_report)
  | _ -> Alcotest.fail "expected exactly one cluster report");
  Alcotest.(check int)
    "same result count"
    (List.length plain.Fleet.oc_results)
    (List.length fed.Fed.fo_results);
  List.iter2
    (fun (a : Fleet.result) (ci, (b : Fleet.result)) ->
      Alcotest.(check int) "cluster 0" 0 ci;
      if
        not
          (a.Fleet.rs_app = b.Fleet.rs_app
          && a.Fleet.rs_id = b.Fleet.rs_id
          && a.Fleet.rs_done = b.Fleet.rs_done
          && a.Fleet.rs_latency = b.Fleet.rs_latency
          && a.Fleet.rs_accelerated = b.Fleet.rs_accelerated
          && Interp.equal_value a.Fleet.rs_value b.Fleet.rs_value)
      then
        Alcotest.failf "result (%d,%d) differs from plain serve"
          a.Fleet.rs_app a.Fleet.rs_id)
    plain.Fleet.oc_results fed.Fed.fo_results

(* ---------- determinism ---------- *)

let fed_opts_full =
  { Fed.default_opts with
    Fed.fd_route = Fed.Locality;
    fd_autoscale =
      Some { Fed.default_autoscale with Fed.as_interval_s = 0.05 };
    fd_seed = 11 }

let test_determinism () =
  let apps, requests = Lazy.force scenario in
  let o1, j1 =
    fed_serve ~opts:fed_opts_full ~clusters:two_clusters apps requests
  in
  let o2, j2 =
    fed_serve ~opts:fed_opts_full ~clusters:two_clusters apps requests
  in
  Alcotest.(check string)
    "federation report byte-identical"
    (Fed.report_to_string o1.Fed.fo_report)
    (Fed.report_to_string o2.Fed.fo_report);
  Alcotest.(check string) "JSONL byte-identical" j1 j2

(* ---------- oracle and no-drop across every route ---------- *)

let test_differential_all_routes () =
  let apps, requests = Lazy.force scenario in
  List.iter
    (fun route ->
      let opts = { fed_opts_full with Fed.fd_route = route } in
      let oc, _ = fed_serve ~opts ~clusters:two_clusters apps requests in
      Alcotest.(check int)
        (Fed.route_name route ^ ": every request completed exactly once")
        (List.length requests)
        (List.length oc.Fed.fo_results);
      let by_key = Hashtbl.create 64 in
      List.iter
        (fun (_, (res : Fleet.result)) ->
          Hashtbl.replace by_key (res.Fleet.rs_app, res.Fleet.rs_id) res)
        oc.Fed.fo_results;
      List.iter
        (fun (_, (r : Fleet.request)) ->
          match Hashtbl.find_opt by_key (r.Fleet.rq_app, r.Fleet.rq_id) with
          | None ->
            Alcotest.failf "%s: request (%d,%d) missing"
              (Fed.route_name route) r.Fleet.rq_app r.Fleet.rq_id
          | Some res ->
            if
              not
                (Interp.equal_value res.Fleet.rs_value (standalone apps r))
            then
              Alcotest.failf "%s: request (%d,%d) diverged from JVM oracle"
                (Fed.route_name route) r.Fleet.rq_app r.Fleet.rq_id)
        requests;
      (* Cache-affinity legitimately concentrates a tenant on the pool
         that first loaded its bitstream; the spreading check only
         applies to the load-balancing routes. *)
      if route <> Fed.Cache_affinity then
        Alcotest.(check bool)
          (Fed.route_name route ^ ": both clusters served traffic")
          true
          (List.for_all
             (fun (c : Fed.cluster_report) -> c.Fed.cr_routed > 0)
             oc.Fed.fo_report.Fed.fr_clusters))
    Fed.all_routes

let test_wrr_respects_weights () =
  let apps, requests = Lazy.force scenario in
  let clusters =
    [ Fed.cluster ~devices:2 ~weight:3.0 "big";
      Fed.cluster ~devices:2 ~weight:1.0 "small" ]
  in
  let oc, _ = fed_serve ~clusters apps requests in
  match oc.Fed.fo_report.Fed.fr_clusters with
  | [ big; small ] ->
    let ratio =
      float_of_int big.Fed.cr_routed /. float_of_int small.Fed.cr_routed
    in
    if ratio < 2.9 || ratio > 3.1 then
      Alcotest.failf "weighted rr ratio %.3f not ~3 (%d vs %d)" ratio
        big.Fed.cr_routed small.Fed.cr_routed
  | _ -> Alcotest.fail "expected two cluster reports"

(* ---------- autoscaling ---------- *)

let test_autoscale_leases_and_releases () =
  let apps, requests = Lazy.force scenario in
  let opts =
    { Fed.default_opts with
      Fed.fd_autoscale =
        Some
          { Fed.default_autoscale with
            Fed.as_interval_s = 0.02; as_up_queue = 4 };
      fd_seed = 11 }
  in
  let clusters = [ Fed.cluster ~devices:1 "east"; Fed.cluster ~devices:1 "west" ] in
  let oc, _ = fed_serve ~opts ~clusters apps requests in
  let rp = oc.Fed.fo_report in
  Alcotest.(check bool) "autoscaler leased devices" true (rp.Fed.fr_leases > 0);
  Alcotest.(check bool)
    "drained pools released devices back" true (rp.Fed.fr_releases > 0);
  Alcotest.(check int)
    "no request dropped under autoscaling"
    (List.length requests)
    (List.length oc.Fed.fo_results)

(* ---------- the online DSE loop ---------- *)

(* The acceptance demo: a tenant serving its untransformed kernel
   breaches its p99 SLO; the online loop re-tunes it (bounded, memoized)
   and promotes the winning design into both member fleets at the next
   epoch; the promoted run's p99 beats the no-promotion run's — and
   both runs stay deterministic, no request dropped, oracle intact. *)
let retune_scenario =
  lazy
    (let w = Option.get (W.find "S-W") in
     let c = W.compile w in
     let fields = w.W.w_fields (Rng.create 23) in
     let app = S2fa.serve_app ~name:w.W.w_name ~fields c in
     let ts = [ Traffic.tenant ~rate:50.0 w ] in
     let requests =
       Traffic.regional_requests ~seed:23 ~horizon:8.0
         [ Traffic.region "east"; Traffic.region "west" ]
         ts
     in
     (app, c, requests))

let retune_serve ?retune () =
  let app, compiled, requests = Lazy.force retune_scenario in
  let opts = { Fed.default_opts with Fed.fd_retune = retune; fd_seed = 23 } in
  let clusters = [ Fed.cluster ~devices:2 "east"; Fed.cluster ~devices:2 "west" ] in
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let outcome =
    Fed.serve ~opts ~trace ~clusters
      [ Fed.tenant ~compiled app ]
      requests
  in
  T.flush trace;
  (outcome, Buffer.contents buf)

let test_retune_improves_p99 () =
  let _, _, requests = Lazy.force retune_scenario in
  let slo_ms = 2000.0 in
  (* S-W's space is big and its evals are expensive on the virtual DSE
     clock, so the bounded default budget (6 evals) can fail to beat the
     untransformed seed; a longer offline pass finds the real design. *)
  let rt_opts =
    { Fed.default_retune_opts with
      S2fa_dse.Driver.so_time_limit = 120.0;
      so_samples = 48 }
  in
  let retune = Fed.retune ~epoch_s:1.0 ~opts:rt_opts slo_ms in
  let base, _ = retune_serve () in
  let tuned, jt = retune_serve ~retune () in
  let p99 (oc : Fed.outcome) =
    match oc.Fed.fo_report.Fed.fr_tenants with
    | [ t ] -> t.Fed.tr_p99_ms
    | _ -> Alcotest.fail "expected one tenant report"
  in
  Alcotest.(check bool)
    "baseline tenant breaches its SLO" true (p99 base > slo_ms);
  let rp = tuned.Fed.fo_report in
  Alcotest.(check int) "exactly one re-tune" 1 rp.Fed.fr_retunes;
  Alcotest.(check int) "exactly one promotion" 1 rp.Fed.fr_promotions;
  Alcotest.(check bool)
    "re-tuning billed virtual DSE minutes" true (rp.Fed.fr_tune_minutes > 0.0);
  (* The cold-start backlog (first ~3 s of bitstream reconfiguration)
     is identical in both runs and owns the global tail, so the
     improvement is measured where the promotion can show: on-pool
     service of requests arriving in the final quarter of the horizon,
     well after the epoch-boundary design swap. S-W's untransformed
     kernel is compute-dominated, so the promoted design (wider buses,
     unrolled + pipelined loops) cuts accelerated latency severalfold. *)
  let tail_p99 (oc : Fed.outcome) =
    let lats =
      List.filter_map
        (fun (_, (r : Fleet.result)) ->
          if
            r.Fleet.rs_accelerated
            && r.Fleet.rs_done -. r.Fleet.rs_latency >= 6.0
          then Some (r.Fleet.rs_latency *. 1000.0)
          else None)
        oc.Fed.fo_results
    in
    S2fa_util.Stats.p99 (Array.of_list lats)
  in
  if not (tail_p99 tuned < 0.75 *. tail_p99 base) then
    Alcotest.failf
      "promotion did not improve the post-promotion p99: %.3f vs %.3f"
      (tail_p99 tuned) (tail_p99 base);
  Alcotest.(check int)
    "no request dropped across the promotion"
    (List.length requests)
    (List.length tuned.Fed.fo_results);
  (* Oracle intact through the live design swap; S-W's interpreter is
     the slow part of this test, so spot-check a deterministic third of
     the results rather than all of them. *)
  let app, _, _ = Lazy.force retune_scenario in
  let apps = [| app |] in
  List.iteri
    (fun i (_, (res : Fleet.result)) ->
      if i mod 3 = 0 then begin
        let req =
          List.find
            (fun (_, (r : Fleet.request)) ->
              r.Fleet.rq_app = res.Fleet.rs_app
              && r.Fleet.rq_id = res.Fleet.rs_id)
            requests
        in
        if
          not
            (Interp.equal_value res.Fleet.rs_value (standalone apps (snd req)))
        then
          Alcotest.failf "post-promotion result (%d,%d) diverged from oracle"
            res.Fleet.rs_app res.Fleet.rs_id
      end)
    tuned.Fed.fo_results;
  (* And the whole promoted run is byte-reproducible. *)
  let tuned2, j2 = retune_serve ~retune () in
  Alcotest.(check string)
    "promoted run deterministic"
    (Fed.report_to_string tuned.Fed.fo_report)
    (Fed.report_to_string tuned2.Fed.fo_report);
  Alcotest.(check string) "promoted run JSONL deterministic" jt j2

(* ---------- regional traffic independence ---------- *)

let prop_region_independence =
  QCheck.Test.make
    ~name:"region 0's stream ignores region 1's existence and scale"
    ~count:10
    QCheck.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, scale_b) ->
      let ts = [ Traffic.tenant ~rate:200.0 (Option.get (W.find "KMeans")) ] in
      let ra = Traffic.region "a" in
      let rb = Traffic.region ~scale:(float_of_int scale_b) "b" in
      let both =
        Traffic.regional_requests ~seed ~horizon:0.2 [ ra; rb ] ts
      in
      let solo = Traffic.regional_requests ~seed ~horizon:0.2 [ ra ] ts in
      List.filter (fun (ri, _) -> ri = 0) both = solo)

let prop_region_ids_unique =
  QCheck.Test.make ~name:"(app, id) unique federation-wide" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let ts = Lazy.force tenants in
      let reqs =
        Traffic.regional_requests ~seed ~horizon:0.1 (Lazy.force regions) ts
      in
      let keys =
        List.map (fun (_, (r : Fleet.request)) -> (r.Fleet.rq_app, r.Fleet.rq_id)) reqs
      in
      List.length (List.sort_uniq compare keys) = List.length keys)

(* ---------- chaos campaign ---------- *)

let test_fed_chaos_campaign () =
  let c = Chaos.run_fed ~seeds:4 ~seed0:0 () in
  Alcotest.(check (list string)) "no invariant violations" []
    c.Chaos.fc_violations;
  Alcotest.(check int) "all seeds reported" 4 (List.length c.Chaos.fc_reports)

(* ---------- validation ---------- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_fed_error pat f =
  match f () with
  | _ -> Alcotest.failf "expected Federation_error matching %S" pat
  | exception Fed.Federation_error m ->
    if not (contains m pat) then
      Alcotest.failf "error %S does not mention %S" m pat

let test_rejects_bad_config () =
  let apps, requests = Lazy.force scenario in
  let tenants = Array.to_list (Array.map Fed.tenant apps) in
  expect_fed_error "at least one cluster" (fun () ->
      Fed.serve ~clusters:[] tenants requests);
  expect_fed_error "weight" (fun () ->
      Fed.serve
        ~clusters:[ Fed.cluster ~weight:0.0 "bad" ]
        tenants requests);
  expect_fed_error "RTT" (fun () ->
      Fed.serve
        ~clusters:[ Fed.cluster ~rtt_s:[| -1.0 |] "bad" ]
        tenants requests);
  expect_fed_error "hysteresis" (fun () ->
      Fed.serve
        ~opts:
          { Fed.default_opts with
            Fed.fd_autoscale =
              Some
                { Fed.default_autoscale with
                  Fed.as_up_queue = 1; as_down_queue = 1 } }
        ~clusters:[ Fed.cluster "c" ] tenants requests);
  expect_fed_error "max_devices" (fun () ->
      Fed.serve
        ~opts:
          { Fed.default_opts with
            Fed.fd_autoscale =
              Some { Fed.default_autoscale with Fed.as_max_devices = 1 } }
        ~clusters:[ Fed.cluster ~devices:3 "c" ]
        tenants requests);
  expect_fed_error "unknown tenant" (fun () ->
      Fed.serve
        ~clusters:[ Fed.cluster "c" ]
        tenants
        [ ( 0,
            { Fleet.rq_app = 99; rq_id = 0; rq_arrival = 0.0;
              rq_deadline = None; rq_payload = Interp.VInt 0 } ) ]);
  expect_fed_error "negative region" (fun () ->
      Fed.serve
        ~clusters:[ Fed.cluster "c" ]
        tenants
        [ ( -1,
            { Fleet.rq_app = 0; rq_id = 0; rq_arrival = 0.0;
              rq_deadline = None; rq_payload = Interp.VInt 0 } ) ])

let prop_route_names_roundtrip =
  QCheck.Test.make ~name:"route_of_name inverts route_name" ~count:8
    QCheck.(int_range 0 3)
    (fun i ->
      let r = List.nth Fed.all_routes i in
      Fed.route_of_name (Fed.route_name r) = Some r)

let () =
  Alcotest.run "federation"
    [ ( "identity",
        [ Alcotest.test_case "1-cluster federation = plain Fleet.serve"
            `Quick test_identity_differential ] );
      ( "determinism",
        [ Alcotest.test_case "report and JSONL byte-identical" `Quick
            test_determinism ] );
      ( "routing",
        [ Alcotest.test_case "all routes differential and no-drop" `Quick
            test_differential_all_routes;
          Alcotest.test_case "wrr respects cluster weights" `Quick
            test_wrr_respects_weights;
          QCheck_alcotest.to_alcotest prop_route_names_roundtrip ] );
      ( "autoscale",
        [ Alcotest.test_case "leases under backlog, releases when drained"
            `Quick test_autoscale_leases_and_releases ] );
      ( "online-dse",
        [ Alcotest.test_case "re-tune + promotion improves breaching p99"
            `Quick test_retune_improves_p99 ] );
      ( "traffic",
        [ QCheck_alcotest.to_alcotest prop_region_independence;
          QCheck_alcotest.to_alcotest prop_region_ids_unique ] );
      ( "chaos",
        [ Alcotest.test_case "federation campaign holds all invariants"
            `Quick test_fed_chaos_campaign ] );
      ( "validation",
        [ Alcotest.test_case "bad configs rejected" `Quick
            test_rejects_bad_config ] ) ]
