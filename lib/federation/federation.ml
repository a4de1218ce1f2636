module Rng = S2fa_util.Rng
module Stats = S2fa_util.Stats
module Space = S2fa_tuner.Space
module Resultdb = S2fa_tuner.Resultdb
module Driver = S2fa_dse.Driver
module S2fa = S2fa_core.S2fa
module Fleet = S2fa_fleet.Fleet
module Telemetry = S2fa_telemetry.Telemetry
module Obs = S2fa_obs.Obs
module Fault = S2fa_fault.Fault

exception Federation_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Federation_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Configuration *)
(* ------------------------------------------------------------------ *)

type route_policy = Weighted_rr | Least_queue | Cache_affinity | Locality

let all_routes = [ Weighted_rr; Least_queue; Cache_affinity; Locality ]

let route_name = function
  | Weighted_rr -> "wrr"
  | Least_queue -> "least-queue"
  | Cache_affinity -> "cache-affinity"
  | Locality -> "locality"

let route_of_name = function
  | "wrr" -> Some Weighted_rr
  | "least-queue" -> Some Least_queue
  | "cache-affinity" -> Some Cache_affinity
  | "locality" -> Some Locality
  | _ -> None

type cluster = {
  cl_name : string;
  cl_devices : int;
  cl_weight : float;
  cl_rtt_s : float array;
  cl_faults : Fault.spec option;
}

let cluster ?(devices = 2) ?(weight = 1.0) ?(rtt_s = [||]) ?faults name =
  { cl_name = name;
    cl_devices = devices;
    cl_weight = weight;
    cl_rtt_s = rtt_s;
    cl_faults = faults }

type autoscale = {
  as_interval_s : float;
  as_up_queue : int;
  as_down_queue : int;
  as_max_devices : int;
}

let default_autoscale =
  { as_interval_s = 5.0; as_up_queue = 8; as_down_queue = 1;
    as_max_devices = 4 }

type retune = {
  rt_epoch_s : float;
  rt_p99_slo_ms : float;
  rt_opts : Driver.s2fa_opts;
  rt_tasks : int option;
  rt_min_samples : int;
  rt_max_per_tenant : int;
}

(* A bounded re-tuning budget: two virtual cores for twenty virtual
   minutes over sixteen offline samples is enough to find the
   structured-seed neighborhood's winner for every repo workload while
   keeping the federation run itself cheap. *)
let default_retune_opts =
  { Driver.default_s2fa_opts with
    so_cores = 2; so_time_limit = 20.0; so_samples = 16 }

let retune ?(epoch_s = 10.0) ?(opts = default_retune_opts) ?tasks
    ?(min_samples = 20) ?(max_per_tenant = 1) slo_ms =
  { rt_epoch_s = epoch_s;
    rt_p99_slo_ms = slo_ms;
    rt_opts = opts;
    rt_tasks = tasks;
    rt_min_samples = min_samples;
    rt_max_per_tenant = max_per_tenant }

type tenant = {
  ft_app : Fleet.app;
  ft_compiled : S2fa.compiled option;
}

let tenant ?compiled app = { ft_app = app; ft_compiled = compiled }

type opts = {
  fd_route : route_policy;
  fd_fleet : Fleet.opts;
  fd_autoscale : autoscale option;
  fd_retune : retune option;
  fd_seed : int;
}

let default_opts =
  { fd_route = Weighted_rr;
    fd_fleet = Fleet.default_opts;
    fd_autoscale = None;
    fd_retune = None;
    fd_seed = 0 }

(* ------------------------------------------------------------------ *)
(* Reports *)
(* ------------------------------------------------------------------ *)

type cluster_report = {
  cr_name : string;
  cr_routed : int;
  cr_leases : int;
  cr_releases : int;
  cr_report : Fleet.report;
}

type tenant_report = {
  tr_app : string;
  tr_requests : int;
  tr_p50_ms : float;
  tr_p95_ms : float;
  tr_p99_ms : float;
  tr_retunes : int;
  tr_promotions : int;
}

type report = {
  fr_route : string;
  fr_requests : int;
  fr_p50_ms : float;
  fr_p95_ms : float;
  fr_p99_ms : float;
  fr_deadline_hits : int;
  fr_deadline_misses : int;
  fr_leases : int;
  fr_releases : int;
  fr_retunes : int;
  fr_promotions : int;
  fr_tune_minutes : float;
  fr_makespan : float;
  fr_clusters : cluster_report list;
  fr_tenants : tenant_report list;
}

type outcome = {
  fo_report : report;
  fo_results : (int * Fleet.result) list;
}

(* ------------------------------------------------------------------ *)
(* Validation *)
(* ------------------------------------------------------------------ *)

let check_clusters clusters =
  if clusters = [] then fail "serve: need at least one cluster";
  List.iter
    (fun c ->
      if c.cl_devices < 1 then
        fail "serve: cluster %s needs at least one device" c.cl_name;
      if not (c.cl_weight > 0.0 && Float.is_finite c.cl_weight) then
        fail "serve: cluster %s weight must be positive and finite"
          c.cl_name;
      Array.iter
        (fun r ->
          if not (r >= 0.0 && Float.is_finite r) then
            fail "serve: cluster %s RTT must be non-negative and finite"
              c.cl_name)
        c.cl_rtt_s)
    clusters

let check_autoscale clusters = function
  | None -> ()
  | Some a ->
      if not (a.as_interval_s > 0.0 && Float.is_finite a.as_interval_s)
      then fail "serve: autoscale interval must be positive and finite";
      if a.as_up_queue <= a.as_down_queue then
        fail "serve: autoscale needs up_queue > down_queue (hysteresis)";
      if a.as_down_queue < 0 then
        fail "serve: autoscale down_queue must be non-negative";
      List.iter
        (fun c ->
          if a.as_max_devices < c.cl_devices then
            fail "serve: autoscale max_devices %d below cluster %s's %d"
              a.as_max_devices c.cl_name c.cl_devices)
        clusters

let check_retune = function
  | None -> ()
  | Some r ->
      if not (r.rt_epoch_s > 0.0 && Float.is_finite r.rt_epoch_s) then
        fail "serve: retune epoch must be positive and finite";
      if not (r.rt_p99_slo_ms > 0.0 && Float.is_finite r.rt_p99_slo_ms)
      then fail "serve: retune p99 SLO must be positive and finite";
      if r.rt_min_samples < 1 then
        fail "serve: retune min_samples must be at least 1";
      if r.rt_max_per_tenant < 0 then
        fail "serve: retune max_per_tenant must be non-negative"

let check_requests n_tenants requests =
  List.iter
    (fun (region, (r : Fleet.request)) ->
      if region < 0 then
        fail "serve: request %d/%d has negative region %d" r.Fleet.rq_app
          r.Fleet.rq_id region;
      if r.Fleet.rq_app < 0 || r.Fleet.rq_app >= n_tenants then
        fail "serve: request %d names unknown tenant %d" r.Fleet.rq_id
          r.Fleet.rq_app)
    requests

(* ------------------------------------------------------------------ *)
(* Serving *)
(* ------------------------------------------------------------------ *)

let request_order (_, (a : Fleet.request)) (_, (b : Fleet.request)) =
  compare
    (a.Fleet.rq_arrival, a.Fleet.rq_app, a.Fleet.rq_id)
    (b.Fleet.rq_arrival, b.Fleet.rq_app, b.Fleet.rq_id)

(* Private stream for tenant [ti]'s re-tuning run at epoch [epoch]:
   the Traffic derivation with the epoch folded in, so re-tunes are
   independent of each other and of every traffic stream. *)
let retune_rng seed ti epoch =
  Rng.create
    (((seed * 0x3779_97f5) lxor ((ti + 1) * 0x9e37_79b9))
    lxor ((epoch + 1) * 0x2545_f491_4f6c_dd1d))

let serve ?(opts = default_opts) ?trace ~clusters tenants requests =
  Obs.span "federation.serve" @@ fun () ->
  check_clusters clusters;
  check_autoscale clusters opts.fd_autoscale;
  check_retune opts.fd_retune;
  if tenants = [] then fail "serve: need at least one tenant";
  check_requests (List.length tenants) requests;
  let clusters = Array.of_list clusters in
  let nc = Array.length clusters in
  let apps = Array.of_list (List.map (fun t -> t.ft_app) tenants) in
  let compiled = Array.of_list (List.map (fun t -> t.ft_compiled) tenants) in
  let nt = Array.length apps in
  (* A federation that is one cluster with routing trivial (zero RTT)
     and both control loops off is the degenerate case the differential
     test pins: it must be byte-identical to plain [Fleet.serve] — so
     it emits no federation telemetry at all. *)
  let fed_active =
    nc > 1 || opts.fd_autoscale <> None || opts.fd_retune <> None
    || Array.exists (fun c -> Array.exists (fun r -> r > 0.0) c.cl_rtt_s)
         clusters
  in
  let emit t kind =
    match trace with
    | Some tr when fed_active ->
        Telemetry.set_clock tr (t /. 60.0);
        Telemetry.emit tr kind
    | _ -> ()
  in
  (* Member pools: one sim per cluster, all sharing the tracer. Under
     autoscaling a pool is created at its ceiling and immediately —
     silently — released down to its floor, so leases later re-admit
     pre-provisioned devices rather than invent new ones. *)
  let pool_size ci =
    match opts.fd_autoscale with
    | Some a -> a.as_max_devices
    | None -> clusters.(ci).cl_devices
  in
  let sims =
    Array.init nc (fun ci ->
        let c = clusters.(ci) in
        let fopts = { opts.fd_fleet with Fleet.o_devices = pool_size ci } in
        let faults =
          match c.cl_faults with
          | None -> None
          | Some spec ->
              Some (Fault.create ~seed:((opts.fd_seed * 7919) + 17 + ci) spec)
        in
        let sim = Fleet.make_sim ~opts:fopts ?trace ?faults apps [] in
        (match opts.fd_autoscale with
        | Some _ ->
            for _ = c.cl_devices + 1 to pool_size ci do
              if not (sim.Fleet.s_release ()) then
                fail "serve: cluster %s could not park down to its floor"
                  c.cl_name
            done
        | None -> ());
        sim)
  in
  let devices = Array.init nc (fun ci -> clusters.(ci).cl_devices) in
  let routed = Array.make nc 0 in
  let leases = Array.make nc 0 in
  let releases = Array.make nc 0 in
  (* Routing state: smooth weighted round-robin credits. *)
  let wrr_cur = Array.make nc 0.0 in
  let wrr_total =
    Array.fold_left (fun s c -> s +. c.cl_weight) 0.0 clusters
  in
  let rtt_of ci region =
    let rtts = clusters.(ci).cl_rtt_s in
    if region < Array.length rtts then rtts.(region) else 0.0
  in
  let route region (r : Fleet.request) =
    match opts.fd_route with
    | Weighted_rr ->
        let best = ref 0 in
        for ci = 0 to nc - 1 do
          wrr_cur.(ci) <- wrr_cur.(ci) +. clusters.(ci).cl_weight;
          if wrr_cur.(ci) > wrr_cur.(!best) then best := ci
        done;
        wrr_cur.(!best) <- wrr_cur.(!best) -. wrr_total;
        !best
    | Least_queue ->
        let best = ref 0 in
        for ci = 1 to nc - 1 do
          if
            sims.(ci).Fleet.s_queue_depth ()
            < sims.(!best).Fleet.s_queue_depth ()
          then best := ci
        done;
        !best
    | Cache_affinity ->
        (* Prefer a pool already carrying this tenant's bitstream (the
           serving-policy [Affinity] signal lifted across pools);
           least-queue, lowest index among the carriers — or among
           everyone when no pool has it loaded. *)
        let best = ref (-1) in
        for ci = 0 to nc - 1 do
          if sims.(ci).Fleet.s_loaded r.Fleet.rq_app then
            if
              !best < 0
              || sims.(ci).Fleet.s_queue_depth ()
                 < sims.(!best).Fleet.s_queue_depth ()
            then best := ci
        done;
        if !best >= 0 then !best
        else begin
          let best = ref 0 in
          for ci = 1 to nc - 1 do
            if
              sims.(ci).Fleet.s_queue_depth ()
              < sims.(!best).Fleet.s_queue_depth ()
            then best := ci
          done;
          !best
        end
    | Locality ->
        let key ci = (rtt_of ci region, sims.(ci).Fleet.s_queue_depth ()) in
        let best = ref 0 in
        for ci = 1 to nc - 1 do
          if key ci < key !best then best := ci
        done;
        !best
  in
  (* Origin ledger: fed-level latency charges the request from its
     original regional arrival and bills the return RTT on top of the
     serving cluster's completion. *)
  let origin : (int * int, float * float) Hashtbl.t =
    Hashtbl.create (List.length requests * 2)
  in
  let pending = ref (List.sort request_order requests) in
  let n_requests = List.length requests in
  if !pending <> [] then
    Array.iter (fun s -> s.Fleet.s_expect_more true) sims;
  (* Online-DSE state. *)
  let windows = Array.make nt [] in
  let retunes = Array.make nt 0 in
  let promotions = Array.make nt 0 in
  let dbs = Array.init nt (fun _ -> Resultdb.create ()) in
  let pending_promos : (int * Fleet.app * string) list ref = ref [] in
  let tune_minutes = ref 0.0 in
  let epoch = ref 0 in
  let t_auto =
    ref
      (match opts.fd_autoscale with
      | Some a -> a.as_interval_s
      | None -> infinity)
  in
  let t_epoch =
    ref
      (match opts.fd_retune with
      | Some r -> r.rt_epoch_s
      | None -> infinity)
  in
  let min_sim () =
    let best = ref (-1) and bt = ref infinity in
    for ci = 0 to nc - 1 do
      let t = sims.(ci).Fleet.s_next () in
      if t < !bt then begin
        bt := t;
        best := ci
      end
    done;
    (!bt, !best)
  in
  let drain_windows () =
    Array.iter
      (fun sim ->
        List.iter
          (fun (r : Fleet.result) ->
            match Hashtbl.find_opt origin (r.Fleet.rs_app, r.Fleet.rs_id) with
            | None -> ()
            | Some (orig, rtt) ->
                let ms = (r.Fleet.rs_done +. rtt -. orig) *. 1000.0 in
                windows.(r.Fleet.rs_app) <- ms :: windows.(r.Fleet.rs_app))
          (sim.Fleet.s_drain ()))
      sims
  in
  let autoscale_tick () =
    let a = Option.get opts.fd_autoscale in
    for ci = 0 to nc - 1 do
      let q = sims.(ci).Fleet.s_queue_depth () in
      if q >= a.as_up_queue && devices.(ci) < a.as_max_devices then begin
        if sims.(ci).Fleet.s_lease () then begin
          devices.(ci) <- devices.(ci) + 1;
          leases.(ci) <- leases.(ci) + 1;
          emit !t_auto
            (Telemetry.Fed_autoscale
               { cluster = clusters.(ci).cl_name; action = "lease";
                 devices = devices.(ci); queue_len = q })
        end
      end
      else if q <= a.as_down_queue && devices.(ci) > clusters.(ci).cl_devices
      then
        if sims.(ci).Fleet.s_release () then begin
          devices.(ci) <- devices.(ci) - 1;
          releases.(ci) <- releases.(ci) + 1;
          emit !t_auto
            (Telemetry.Fed_autoscale
               { cluster = clusters.(ci).cl_name; action = "release";
                 devices = devices.(ci); queue_len = q })
        end
    done;
    t_auto := !t_auto +. a.as_interval_s
  in
  let epoch_tick () =
    let r = Option.get opts.fd_retune in
    incr epoch;
    (* Promotions decided at the previous epoch land now, on every
       member pool at once — a deterministic fleet-wide config epoch. *)
    List.iter
      (fun (ti, app', cfg) ->
        Array.iter (fun sim -> sim.Fleet.s_update_app ti app') sims;
        apps.(ti) <- app';
        promotions.(ti) <- promotions.(ti) + 1;
        emit !t_epoch
          (Telemetry.Fed_promote
             { app = app'.Fleet.ap_name; epoch = !epoch; cfg }))
      (List.sort (fun (a, _, _) (b, _, _) -> compare a b) !pending_promos);
    pending_promos := [];
    drain_windows ();
    for ti = 0 to nt - 1 do
      match compiled.(ti) with
      | Some c
        when retunes.(ti) < r.rt_max_per_tenant
             && List.length windows.(ti) >= r.rt_min_samples ->
          let p99 = Stats.p99 (Array.of_list windows.(ti)) in
          if p99 > r.rt_p99_slo_ms then begin
            retunes.(ti) <- retunes.(ti) + 1;
            (* Fresh window from here: post-promotion samples measure
               the new design, not the breach that triggered it. *)
            windows.(ti) <- [];
            let rng = retune_rng opts.fd_seed ti !epoch in
            let rr =
              S2fa.explore ~opts:r.rt_opts ?tasks:r.rt_tasks ~db:dbs.(ti) c
                rng
            in
            tune_minutes := !tune_minutes +. rr.Driver.rr_minutes;
            emit !t_epoch
              (Telemetry.Fed_retune
                 { app = apps.(ti).Fleet.ap_name; epoch = !epoch;
                   p99_minutes = p99 /. 60000.0;
                   slo_minutes = r.rt_p99_slo_ms /. 60000.0;
                   tune_minutes = rr.Driver.rr_minutes;
                   evals = rr.Driver.rr_evals });
            match rr.Driver.rr_best with
            | Some (cfg, _) ->
                let old = apps.(ti) in
                let app' =
                  S2fa.serve_app ~design:cfg ~weight:old.Fleet.ap_weight
                    ~batch:old.Fleet.ap_batch
                    ~queue_cap:old.Fleet.ap_queue_cap
                    ~name:old.Fleet.ap_name ~fields:old.Fleet.ap_fields c
                in
                pending_promos :=
                  (ti, app', Space.key cfg) :: !pending_promos
            | None -> ()
          end
      | _ -> ()
    done;
    t_epoch := !t_epoch +. r.rt_epoch_s
  in
  (* The driver loop: strictly time-ordered, ties resolved arrival
     before pool event before autoscale before epoch, so a request
     landing exactly on a pool's frontier is injected before the pool
     steps past it. *)
  let rec run () =
    let t_arr =
      match !pending with
      | (_, r) :: _ -> r.Fleet.rq_arrival
      | [] -> infinity
    in
    let t_sim, ci_sim = min_sim () in
    let work = t_arr < infinity || t_sim < infinity in
    if work then begin
      if t_arr <= t_sim && t_arr <= !t_auto && t_arr <= !t_epoch then begin
        match !pending with
        | [] -> assert false
        | (region, r) :: rest ->
            pending := rest;
            let ci = route region r in
            let rtt = rtt_of ci region in
            routed.(ci) <- routed.(ci) + 1;
            Hashtbl.replace origin
              (r.Fleet.rq_app, r.Fleet.rq_id)
              (r.Fleet.rq_arrival, rtt);
            emit r.Fleet.rq_arrival
              (Telemetry.Fed_route
                 { app = apps.(r.Fleet.rq_app).Fleet.ap_name;
                   request = r.Fleet.rq_id; region;
                   cluster = clusters.(ci).cl_name;
                   rtt_minutes = rtt /. 60.0 });
            sims.(ci).Fleet.s_inject
              { r with Fleet.rq_arrival = r.Fleet.rq_arrival +. rtt };
            if rest = [] then
              Array.iter (fun s -> s.Fleet.s_expect_more false) sims
      end
      else if t_sim <= !t_auto && t_sim <= !t_epoch then
        ignore (sims.(ci_sim).Fleet.s_step ())
      else if !t_auto <= !t_epoch then autoscale_tick ()
      else epoch_tick ();
      run ()
    end
  in
  run ();
  (* Assemble: finish every pool, merge the per-cluster latency spans
     through the mergeable-percentile path, and prove the no-drop
     contract (every routed request completed exactly once). *)
  let outcomes = Array.map (fun sim -> sim.Fleet.s_finish ()) sims in
  let fed_span (r : Fleet.result) =
    match Hashtbl.find_opt origin (r.Fleet.rs_app, r.Fleet.rs_id) with
    | Some (orig, rtt) -> (orig, r.Fleet.rs_done +. rtt)
    | None -> fail "serve: result %d/%d has no routing record"
                r.Fleet.rs_app r.Fleet.rs_id
  in
  let per_cluster_lat =
    Array.map
      (fun (oc : Fleet.outcome) ->
        Stats.sorted
          (Array.of_list
             (List.map
                (fun r ->
                  let orig, fin = fed_span r in
                  (fin -. orig) *. 1000.0)
                oc.Fleet.oc_results)))
      outcomes
  in
  let all_lat = Stats.merge_sorted (Array.to_list per_cluster_lat) in
  let n_results = Array.length all_lat in
  if n_results <> n_requests then
    fail "serve: %d requests in, %d results out" n_requests n_results;
  let pct xs p =
    if Array.length xs = 0 then 0.0 else Stats.percentile_sorted xs p
  in
  let makespan =
    Array.fold_left
      (fun acc (oc : Fleet.outcome) ->
        List.fold_left
          (fun acc r -> Float.max acc (snd (fed_span r)))
          acc oc.Fleet.oc_results)
      0.0 outcomes
  in
  let tenant_lat ti =
    Stats.merge_sorted
      (Array.to_list
         (Array.map
            (fun (oc : Fleet.outcome) ->
              Stats.sorted
                (Array.of_list
                   (List.filter_map
                      (fun (r : Fleet.result) ->
                        if r.Fleet.rs_app = ti then
                          let orig, fin = fed_span r in
                          Some ((fin -. orig) *. 1000.0)
                        else None)
                      oc.Fleet.oc_results)))
            outcomes))
  in
  let tenants_rep =
    List.init nt (fun ti ->
        let lat = tenant_lat ti in
        { tr_app = apps.(ti).Fleet.ap_name;
          tr_requests = Array.length lat;
          tr_p50_ms = pct lat 50.0;
          tr_p95_ms = pct lat 95.0;
          tr_p99_ms = pct lat 99.0;
          tr_retunes = retunes.(ti);
          tr_promotions = promotions.(ti) })
  in
  let clusters_rep =
    List.init nc (fun ci ->
        { cr_name = clusters.(ci).cl_name;
          cr_routed = routed.(ci);
          cr_leases = leases.(ci);
          cr_releases = releases.(ci);
          cr_report = outcomes.(ci).Fleet.oc_report })
  in
  let sum f = Array.fold_left (fun s oc -> s + f oc.Fleet.oc_report) 0 outcomes in
  let report =
    { fr_route = route_name opts.fd_route;
      fr_requests = n_results;
      fr_p50_ms = pct all_lat 50.0;
      fr_p95_ms = pct all_lat 95.0;
      fr_p99_ms = pct all_lat 99.0;
      fr_deadline_hits = sum (fun r -> r.Fleet.rp_deadline_hits);
      fr_deadline_misses = sum (fun r -> r.Fleet.rp_deadline_misses);
      fr_leases = Array.fold_left ( + ) 0 leases;
      fr_releases = Array.fold_left ( + ) 0 releases;
      fr_retunes = Array.fold_left ( + ) 0 retunes;
      fr_promotions = Array.fold_left ( + ) 0 promotions;
      fr_tune_minutes = !tune_minutes;
      fr_makespan = makespan;
      fr_clusters = clusters_rep;
      fr_tenants = tenants_rep }
  in
  let results =
    List.sort
      (fun (_, (a : Fleet.result)) (_, (b : Fleet.result)) ->
        compare (a.Fleet.rs_app, a.Fleet.rs_id) (b.Fleet.rs_app, b.Fleet.rs_id))
      (List.concat
         (List.init nc (fun ci ->
              List.map (fun r -> (ci, r)) outcomes.(ci).Fleet.oc_results)))
  in
  { fo_report = report; fo_results = results }

(* ------------------------------------------------------------------ *)
(* Rendering *)
(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  let p = Format.fprintf in
  p ppf "== federation ==@\n";
  p ppf "route %s  clusters %d  requests %d@\n" r.fr_route
    (List.length r.fr_clusters) r.fr_requests;
  p ppf "latency ms p50 %.3f  p95 %.3f  p99 %.3f@\n" r.fr_p50_ms r.fr_p95_ms
    r.fr_p99_ms;
  if r.fr_deadline_hits + r.fr_deadline_misses > 0 then
    p ppf "deadlines hit %d  missed %d@\n" r.fr_deadline_hits
      r.fr_deadline_misses;
  if r.fr_leases + r.fr_releases > 0 then
    p ppf "autoscale leases %d  releases %d@\n" r.fr_leases r.fr_releases;
  if r.fr_retunes + r.fr_promotions > 0 then
    p ppf "online-dse retunes %d  promotions %d  tune-minutes %.2f@\n"
      r.fr_retunes r.fr_promotions r.fr_tune_minutes;
  p ppf "makespan %.3f s@\n" r.fr_makespan;
  List.iter
    (fun c ->
      p ppf "cluster %-12s routed %6d  devices %d  acc %d  jvm %d" c.cr_name
        c.cr_routed c.cr_report.Fleet.rp_devices
        c.cr_report.Fleet.rp_accelerated c.cr_report.Fleet.rp_fallbacks;
      if c.cr_leases + c.cr_releases > 0 then
        p ppf "  leases %d  releases %d" c.cr_leases c.cr_releases;
      p ppf "@\n")
    r.fr_clusters;
  List.iter
    (fun t ->
      p ppf "tenant  %-12s reqs %6d  p50 %8.3f  p95 %8.3f  p99 %8.3f" t.tr_app
        t.tr_requests t.tr_p50_ms t.tr_p95_ms t.tr_p99_ms;
      if t.tr_retunes + t.tr_promotions > 0 then
        p ppf "  retunes %d  promotions %d" t.tr_retunes t.tr_promotions;
      p ppf "@\n")
    r.fr_tenants

let report_to_string r = Format.asprintf "%a" pp_report r
