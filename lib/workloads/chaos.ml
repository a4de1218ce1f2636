module Rng = S2fa_util.Rng
module Fleet = S2fa_fleet.Fleet
module Fault = S2fa_fault.Fault
module Blaze = S2fa_blaze.Blaze
module Interp = S2fa_jvm.Interp
module T = S2fa_telemetry.Telemetry

(* Every stochastic choice below comes from one SplitMix64 stream keyed
   on the campaign seed alone, so a seed names its scenario forever:
   re-running `s2fa chaos --seeds N` reproduces the same campaign byte
   for byte, and a violation report is a repro recipe. *)

type scenario = {
  sc_seed : int;
  sc_tenants : Traffic.tenant list;
  sc_horizon : float;
  sc_devices : int;
  sc_policy : Fleet.policy;
  sc_slo_ms : float option;
  sc_slo : Fleet.slo;
  sc_faults : Fault.spec;
}

type seed_report = {
  sr_seed : int;
  sr_requests : int;
  sr_shed : int;
  sr_timeouts : int;
  sr_hedges : int;
  sr_trips : int;
  sr_lost : int;
  sr_hit_rate : float;
  sr_digest : string;
  sr_violations : string list;
}

type campaign = { cg_reports : seed_report list; cg_violations : string list }

(* Small kernels only: the JVM-oracle invariant interprets every
   request's payload on the bytecode interpreter, so the campaign cost
   is dominated by the cheapest workloads' per-record time. *)
let workload_pool = [| "KMeans"; "PR"; "LR"; "KNN" |]

let scenario_of_seed seed =
  let rng = Rng.create ((seed + 1) * 0x9e37_79b9) in
  let n_tenants = 1 + Rng.int rng 2 in
  let names = Rng.sample rng n_tenants workload_pool in
  let tenants =
    Array.to_list
      (Array.map
         (fun name ->
           let rate = 100.0 +. (100.0 *. float_of_int (Rng.int rng 3)) in
           let weight = float_of_int (1 + Rng.int rng 3) in
           let batch = if Rng.bool rng then 8 else 16 in
           let queue_cap = if Rng.bool rng then 32 else 64 in
           Traffic.tenant ~rate ~weight ~batch ~queue_cap
             (Option.get (Workloads.find name)))
         names)
  in
  let horizon = 0.2 +. (0.1 *. float_of_int (Rng.int rng 2)) in
  let devices = 1 + Rng.int rng 3 in
  let policy = Rng.choose_list rng Fleet.all_policies in
  (* Deadlines must straddle the pool's cold-start cost (a 3 s virtual
     bitstream reconfiguration) to exercise both outcomes: tighter ones
     shed, looser ones are served on-pool and can still miss. *)
  let slo_ms =
    if Rng.int rng 10 < 7 then
      Some (Rng.choose rng [| 1000.0; 2000.0; 5000.0; 10000.0 |])
    else None
  in
  let breaker =
    if Rng.bool rng then
      Some
        { Fleet.bk_failures = 1 + Rng.int rng 3;
          bk_cooldown_s = 1.0 +. float_of_int (Rng.int rng 3);
          bk_probes = 1 + Rng.int rng 2 }
    else None
  in
  let slo =
    { Fleet.sl_hang_factor = Rng.choose rng [| 2.0; 3.0; 4.0 |];
      sl_hedge = Rng.bool rng;
      sl_breaker = breaker }
  in
  let faults =
    if Rng.int rng 10 < 7 then
      { Fault.zero_spec with
        Fault.fs_core_loss = Rng.choose rng [| 0.0; 0.05; 0.1 |];
        fs_hang = Rng.choose rng [| 0.0; 0.15; 0.3 |] }
    else Fault.zero_spec
  in
  { sc_seed = seed;
    sc_tenants = tenants;
    sc_horizon = horizon;
    sc_devices = devices;
    sc_policy = policy;
    sc_slo_ms = slo_ms;
    sc_slo = slo;
    sc_faults = faults }

let requests_of sc =
  let reqs = Traffic.requests ~seed:sc.sc_seed ~horizon:sc.sc_horizon
               sc.sc_tenants in
  match sc.sc_slo_ms with
  | None -> reqs
  | Some ms -> Fleet.with_deadline (ms /. 1000.0) reqs

(* One serve run of the scenario. A fresh injector per run (same
   private seed) keeps repeated runs draw-for-draw identical; [faulty]
   lets the monotonicity check strip the fault schedule. *)
let run_serve ?(faulty = true) sc ~devices apps requests =
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let faults =
    if faulty && not (Fault.is_zero sc.sc_faults) then
      Some (Fault.create ~seed:((sc.sc_seed * 7919) + 17) sc.sc_faults)
    else None
  in
  let opts =
    { Fleet.o_devices = devices;
      o_policy = sc.sc_policy;
      o_slo = sc.sc_slo }
  in
  let outcome = Fleet.serve ~opts ~trace ?faults apps requests in
  T.flush trace;
  (outcome, Buffer.contents buf)

let standalone (apps : Fleet.app array) (r : Fleet.request) =
  let a = apps.(r.Fleet.rq_app) in
  (Blaze.map_jvm a.Fleet.ap_cls ~fields:a.Fleet.ap_fields
     [| r.Fleet.rq_payload |]).Blaze.tr_values.(0)

(* One hash over a run's report and telemetry stream: what a golden
   pins per seed. *)
let run_digest report jsonl = Digest.to_hex (Digest.string (report ^ jsonl))

let hit_rate (oc : Fleet.outcome) =
  let h = oc.Fleet.oc_report.Fleet.rp_deadline_hits
  and m = oc.Fleet.oc_report.Fleet.rp_deadline_misses in
  if h + m = 0 then nan else float_of_int h /. float_of_int (h + m)

let run_seed seed =
  let sc = scenario_of_seed seed in
  let apps = Traffic.apps ~seed:sc.sc_seed sc.sc_tenants in
  let requests = requests_of sc in
  let violations = ref [] in
  let fail fmt =
    Format.kasprintf (fun s -> violations := s :: !violations) fmt
  in
  let oc, jsonl = run_serve sc ~devices:sc.sc_devices apps requests in
  (* Invariant 1: determinism — an identical re-run must reproduce the
     report and the telemetry stream byte for byte. *)
  let oc2, jsonl2 = run_serve sc ~devices:sc.sc_devices apps requests in
  if
    not
      (String.equal
         (Fleet.report_to_string oc.Fleet.oc_report)
         (Fleet.report_to_string oc2.Fleet.oc_report))
  then fail "determinism: reports differ across identical runs";
  if not (String.equal jsonl jsonl2) then
    fail "determinism: telemetry differs across identical runs";
  (* Invariant 2: no request lost — every arrival completes exactly
     once, shed / timed-out / requeued ones included. *)
  let n_req = List.length requests in
  let n_res = List.length oc.Fleet.oc_results in
  if n_req <> n_res then
    fail "lost requests: %d arrived, %d completed" n_req n_res;
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (res : Fleet.result) ->
      Hashtbl.replace by_key (res.Fleet.rs_app, res.Fleet.rs_id) res)
    oc.Fleet.oc_results;
  (* Invariant 3: JVM oracle — whichever path served a request, its
     value is bit-identical to the un-accelerated baseline. *)
  let diverged = ref 0 in
  List.iter
    (fun (r : Fleet.request) ->
      match Hashtbl.find_opt by_key (r.Fleet.rq_app, r.Fleet.rq_id) with
      | None -> fail "request (%d,%d) missing" r.Fleet.rq_app r.Fleet.rq_id
      | Some res ->
        if not (Interp.equal_value res.Fleet.rs_value (standalone apps r))
        then incr diverged)
    requests;
  if !diverged > 0 then
    fail "oracle: %d result(s) diverged from the JVM baseline" !diverged;
  (* Invariant 4: deadline hit-rate is monotone in pool size. Checked
     fault-free (the injector's draw sequence differs per pool, which
     would confound the comparison); pure queueing should never get
     worse with an extra device. *)
  (match sc.sc_slo_ms with
  | None -> ()
  | Some _ ->
    let small, _ =
      run_serve ~faulty:false sc ~devices:sc.sc_devices apps requests
    in
    let big, _ =
      run_serve ~faulty:false sc ~devices:(sc.sc_devices + 1) apps requests
    in
    let rs = hit_rate small and rb = hit_rate big in
    if (not (Float.is_nan rs)) && not (Float.is_nan rb) then
      if rb +. 1e-9 < rs then
        fail "monotonicity: hit-rate %.4f at %d device(s) fell to %.4f at %d"
          rs sc.sc_devices rb (sc.sc_devices + 1));
  let rp = oc.Fleet.oc_report in
  { sr_seed = seed;
    sr_requests = rp.Fleet.rp_requests;
    sr_shed = rp.Fleet.rp_shed;
    sr_timeouts = rp.Fleet.rp_timeouts;
    sr_hedges = rp.Fleet.rp_hedges;
    sr_trips = rp.Fleet.rp_breaker_trips;
    sr_lost = rp.Fleet.rp_devices_lost;
    sr_hit_rate = hit_rate oc;
    sr_digest = run_digest (Fleet.report_to_string rp) jsonl;
    sr_violations = List.rev !violations }

let run ?(seeds = 20) ?(seed0 = 0) () =
  if seeds <= 0 then invalid_arg "Chaos.run: seeds must be positive";
  let reports =
    List.init seeds (fun i -> run_seed (seed0 + i))
  in
  let violations =
    List.concat_map
      (fun r ->
        List.map (fun v -> Printf.sprintf "seed %d: %s" r.sr_seed v)
          r.sr_violations)
      reports
  in
  { cg_reports = reports; cg_violations = violations }

(* ------------------------------------------------------------------ *)
(* Federation campaigns *)
(* ------------------------------------------------------------------ *)

module Fed = S2fa_federation.Federation

(* A federated scenario rides on the fleet derivation: random cluster
   count, skewed regional rates, per-cluster RTTs, and — the correlated
   failure mode single-pool chaos cannot express — device loss confined
   to one cluster while the rest of the federation stays healthy. *)
type fed_scenario = {
  fs_seed : int;
  fs_tenants : Traffic.tenant list;
  fs_horizon : float;
  fs_regions : Traffic.region list;
  fs_clusters : Fed.cluster list;
  fs_route : Fed.route_policy;
  fs_autoscale : Fed.autoscale option;
  fs_slo_ms : float option;
}

type fed_report = {
  fr_seed : int;
  fr_clusters : int;
  fr_requests : int;
  fr_leases : int;
  fr_releases : int;
  fr_lost : int;
  fr_digest : string;
  fr_violations : string list;
}

type fed_campaign = {
  fc_reports : fed_report list;
  fc_violations : string list;
}

let fed_scenario_of_seed seed =
  let rng = Rng.create ((seed + 1) * 0x2545_f491) in
  let n_tenants = 1 + Rng.int rng 2 in
  let names = Rng.sample rng n_tenants workload_pool in
  let tenants =
    Array.to_list
      (Array.map
         (fun name ->
           let rate = 100.0 +. (100.0 *. float_of_int (Rng.int rng 2)) in
           Traffic.tenant ~rate (Option.get (Workloads.find name)))
         names)
  in
  let horizon = 0.2 in
  let n_clusters = 1 + Rng.int rng 3 in
  let n_regions = 1 + Rng.int rng 3 in
  let regions =
    List.init n_regions (fun ri ->
        Traffic.region
          ~scale:(Rng.choose rng [| 0.5; 1.0; 2.0 |])
          (Printf.sprintf "r%d" ri))
  in
  (* Correlated loss: at most one cluster carries an injector, so every
     lost device lands in the same pool. *)
  let faulty_ci = if Rng.int rng 10 < 7 then Rng.int rng n_clusters else -1 in
  let clusters =
    List.init n_clusters (fun ci ->
        let faults =
          if ci = faulty_ci then
            Some
              { Fault.zero_spec with
                Fault.fs_core_loss = Rng.choose rng [| 0.05; 0.1 |];
                fs_hang = Rng.choose rng [| 0.0; 0.15 |] }
          else None
        in
        Fed.cluster
          ~devices:(1 + Rng.int rng 3)
          ~weight:(float_of_int (1 + Rng.int rng 3))
          ~rtt_s:
            (Array.init n_regions (fun _ ->
                 Rng.choose rng [| 0.0; 0.002; 0.01 |]))
          ?faults
          (Printf.sprintf "c%d" ci))
  in
  let route = Rng.choose_list rng Fed.all_routes in
  let autoscale =
    if Rng.bool rng then
      let floor_max =
        List.fold_left (fun m c -> max m c.Fed.cl_devices) 1 clusters
      in
      Some
        { Fed.default_autoscale with
          Fed.as_max_devices = floor_max + 1 + Rng.int rng 2;
          as_interval_s = Rng.choose rng [| 0.02; 0.05 |] }
    else None
  in
  let slo_ms =
    if Rng.bool rng then Some (Rng.choose rng [| 2000.0; 5000.0 |]) else None
  in
  { fs_seed = seed;
    fs_tenants = tenants;
    fs_horizon = horizon;
    fs_regions = regions;
    fs_clusters = clusters;
    fs_route = route;
    fs_autoscale = autoscale;
    fs_slo_ms = slo_ms }

let fed_requests_of fs =
  let reqs =
    Traffic.regional_requests ~seed:fs.fs_seed ~horizon:fs.fs_horizon
      fs.fs_regions fs.fs_tenants
  in
  match fs.fs_slo_ms with
  | None -> reqs
  | Some ms ->
      List.map
        (fun (ri, (r : Fleet.request)) ->
          (ri, { r with Fleet.rq_deadline =
                          Some (r.Fleet.rq_arrival +. (ms /. 1000.0)) }))
        reqs

let run_fed_serve fs ~clusters apps requests =
  let buf = Buffer.create 4096 in
  let trace = T.create ~sinks:[ T.buffer_sink buf ] () in
  let opts =
    { Fed.default_opts with
      Fed.fd_route = fs.fs_route;
      fd_autoscale = fs.fs_autoscale;
      fd_seed = fs.fs_seed }
  in
  let tenants = Array.to_list (Array.map Fed.tenant apps) in
  let outcome = Fed.serve ~opts ~trace ~clusters tenants requests in
  T.flush trace;
  (outcome, Buffer.contents buf)

let run_fed_seed seed =
  let fs = fed_scenario_of_seed seed in
  let apps = Traffic.apps ~seed:fs.fs_seed fs.fs_tenants in
  let requests = fed_requests_of fs in
  let violations = ref [] in
  let fail fmt =
    Format.kasprintf (fun s -> violations := s :: !violations) fmt
  in
  let oc, jsonl = run_fed_serve fs ~clusters:fs.fs_clusters apps requests in
  (* Invariant 1: determinism — identical re-run, identical bytes. *)
  let oc2, jsonl2 = run_fed_serve fs ~clusters:fs.fs_clusters apps requests in
  if
    not
      (String.equal
         (Fed.report_to_string oc.Fed.fo_report)
         (Fed.report_to_string oc2.Fed.fo_report))
  then fail "determinism: federation reports differ across identical runs";
  if not (String.equal jsonl jsonl2) then
    fail "determinism: federation telemetry differs across identical runs";
  (* Invariant 2: no request lost across the whole federation. *)
  let n_req = List.length requests in
  let n_res = List.length oc.Fed.fo_results in
  if n_req <> n_res then
    fail "lost requests: %d arrived, %d completed" n_req n_res;
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (_, (res : Fleet.result)) ->
      Hashtbl.replace by_key (res.Fleet.rs_app, res.Fleet.rs_id) res)
    oc.Fed.fo_results;
  (* Invariant 3: JVM oracle, whichever cluster served the request. *)
  let diverged = ref 0 in
  List.iter
    (fun (_, (r : Fleet.request)) ->
      match Hashtbl.find_opt by_key (r.Fleet.rq_app, r.Fleet.rq_id) with
      | None -> fail "request (%d,%d) missing" r.Fleet.rq_app r.Fleet.rq_id
      | Some res ->
        if not (Interp.equal_value res.Fleet.rs_value (standalone apps r))
        then incr diverged)
    requests;
  if !diverged > 0 then
    fail "oracle: %d result(s) diverged from the JVM baseline" !diverged;
  (* Invariant 4: cluster invariance — re-serving the same stream on a
     single healthy cluster must reproduce every result value bit for
     bit; where a request lands can change its timing, never its
     answer. *)
  let one =
    [ Fed.cluster ~devices:2 ~weight:1.0 "solo" ]
  in
  let oc_one, _ = run_fed_serve fs ~clusters:one apps requests in
  let mismatched = ref 0 in
  List.iter
    (fun (_, (res : Fleet.result)) ->
      match Hashtbl.find_opt by_key (res.Fleet.rs_app, res.Fleet.rs_id) with
      | None -> fail "cluster invariance: (%d,%d) only in the 1-cluster run"
                  res.Fleet.rs_app res.Fleet.rs_id
      | Some r ->
        if not (Interp.equal_value r.Fleet.rs_value res.Fleet.rs_value) then
          incr mismatched)
    oc_one.Fed.fo_results;
  if !mismatched > 0 then
    fail "cluster invariance: %d value(s) depend on the serving cluster"
      !mismatched;
  let rp = oc.Fed.fo_report in
  { fr_seed = seed;
    fr_clusters = List.length fs.fs_clusters;
    fr_requests = rp.Fed.fr_requests;
    fr_leases = rp.Fed.fr_leases;
    fr_releases = rp.Fed.fr_releases;
    fr_lost =
      List.fold_left
        (fun s (c : Fed.cluster_report) ->
          s + c.Fed.cr_report.Fleet.rp_devices_lost)
        0 rp.Fed.fr_clusters;
    fr_digest = run_digest (Fed.report_to_string rp) jsonl;
    fr_violations = List.rev !violations }

let run_fed ?(seeds = 10) ?(seed0 = 0) () =
  if seeds <= 0 then invalid_arg "Chaos.run_fed: seeds must be positive";
  let reports = List.init seeds (fun i -> run_fed_seed (seed0 + i)) in
  let violations =
    List.concat_map
      (fun r ->
        List.map (fun v -> Printf.sprintf "seed %d: %s" r.fr_seed v)
          r.fr_violations)
      reports
  in
  { fc_reports = reports; fc_violations = violations }

let pp_fed_campaign ppf c =
  let n = List.length c.fc_reports in
  Format.fprintf ppf "federation chaos campaign: %d seed(s), %d violation(s)@."
    n
    (List.length c.fc_violations);
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  seed %3d: %d cluster(s), %3d requests, leases %2d, releases %2d, \
         dev-lost %d%s@."
        r.fr_seed r.fr_clusters r.fr_requests r.fr_leases r.fr_releases
        r.fr_lost
        (if r.fr_violations = [] then "" else "  VIOLATED"))
    c.fc_reports;
  if c.fc_violations <> [] then begin
    Format.fprintf ppf "violations:@.";
    List.iter (fun v -> Format.fprintf ppf "  - %s@." v) c.fc_violations
  end

let pp_campaign ppf c =
  let n = List.length c.cg_reports in
  Format.fprintf ppf "chaos campaign: %d seed(s), %d violation(s)@." n
    (List.length c.cg_violations);
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  seed %3d: %3d requests, shed %2d, timeouts %2d, hedges %2d, \
         trips %2d, dev-lost %d, hit-rate %s%s@."
        r.sr_seed r.sr_requests r.sr_shed r.sr_timeouts r.sr_hedges
        r.sr_trips r.sr_lost
        (if Float.is_nan r.sr_hit_rate then "-"
         else Printf.sprintf "%.1f%%" (100.0 *. r.sr_hit_rate))
        (if r.sr_violations = [] then "" else "  VIOLATED"))
    c.cg_reports;
  if c.cg_violations <> [] then begin
    Format.fprintf ppf "violations:@.";
    List.iter (fun v -> Format.fprintf ppf "  - %s@." v) c.cg_violations
  end
