(* The two serving workloads and the replays that split their host time
   into layers.

   serve-1k: [Fleet.serve] on 1000 devices, one PR tenant at 7000 req/s.
   One bitstream and far more devices than concurrent batches, so after
   the 1000 cold loads nothing reconfigures and every request is
   accelerated: host time goes to the event core, dispatch, and value
   computation ([Blaze.map_accelerated]: serde, [Cinterp], the HLS
   estimate).

   fed-mixed: [Federation.serve] over three regional clusters of 2-4
   devices with four tenants. Four bitstreams compete for a handful of
   devices, so reconfiguration dominates, most requests fall back to the
   JVM ([Interp]), and routing, autoscaling and the online DSE re-tuning
   loop all act. Which tenant wins a device is close to a coin flip, and
   an accelerated S-W batch costs the host far more than a fallback, so
   one scenario's host time swings by a fifth with the seed; each rep
   therefore serves several independently seeded scenarios.

   Arrivals are open-loop in virtual time and fixed before the call; on
   the host each rep is a batch of calls, so there is no generator to
   run late. *)

module W = S2fa_workloads.Workloads
module Traffic = S2fa_workloads.Traffic
module S2fa = S2fa_core.S2fa
module Fleet = S2fa_fleet.Fleet
module Fed = S2fa_federation.Federation
module Blaze = S2fa_blaze.Blaze
module Serde = S2fa_blaze.Serde
module Cinterp = S2fa_hlsc.Cinterp
module Decompile = S2fa_b2c.Decompile
module Estimate = S2fa_hls.Estimate
module Interp = S2fa_jvm.Interp
module Resultdb = S2fa_tuner.Resultdb
module Telemetry = S2fa_telemetry.Telemetry
module Rng = S2fa_util.Rng
module Stats = S2fa_util.Stats
module M = Measure

(* What one serve call hands back to the checks. *)
type served = {
  results : Fleet.result list;
  report : string;
  p50 : float;
  p99 : float;
  counters : (string * (Sink.t -> int) * int) list;
      (** Report counters, each with the sink count that must equal it. *)
}

type scenario = {
  apps : Fleet.app array;
  requests : Fleet.request array;  (** Arrival order. *)
  oracle : (Fleet.request * Interp.value) array Lazy.t;
      (** A seeded sample of requests with their JVM results. *)
  serve : Telemetry.t option -> served;
  extra : M.laps -> Sink.t -> unit;
      (** Workload-specific layers of one traced call. *)
}

let oracle_size = 512

let scenario ~seed apps requests ~serve ~extra =
  let requests = Array.of_list requests in
  let oracle =
    lazy
      (Array.map
         (fun (r : Fleet.request) ->
           let a = apps.(r.Fleet.rq_app) in
           let jvm =
             Blaze.map_jvm a.Fleet.ap_cls ~fields:a.Fleet.ap_fields
               [| r.Fleet.rq_payload |]
           in
           (r, jvm.Blaze.tr_values.(0)))
         (Rng.sample (Rng.create (seed lxor 0x0dac1e)) oracle_size requests))
  in
  { apps; requests; oracle; serve; extra }

(* Requests that failed: missing or answered more than once, results
   naming no request, and oracle-sample results that differ from the
   JVM's. *)
let failures sc (results : Fleet.result list) =
  let tbl = Hashtbl.create (Array.length sc.requests) in
  Array.iter
    (fun (r : Fleet.request) ->
      Hashtbl.replace tbl (r.Fleet.rq_app, r.Fleet.rq_id) (0, None))
    sc.requests;
  let stray = ref 0 in
  List.iter
    (fun (r : Fleet.result) ->
      let k = (r.Fleet.rs_app, r.Fleet.rs_id) in
      match Hashtbl.find_opt tbl k with
      | Some (n, _) -> Hashtbl.replace tbl k (n + 1, Some r.Fleet.rs_value)
      | None -> incr stray)
    results;
  let miscounted =
    Hashtbl.fold (fun _ (n, _) acc -> if n = 1 then acc else acc + 1) tbl 0
  in
  let wrong =
    Array.fold_left
      (fun acc ((r : Fleet.request), expected) ->
        match Hashtbl.find_opt tbl (r.Fleet.rq_app, r.Fleet.rq_id) with
        | Some (1, Some got) when not (Interp.equal_value got expected) ->
          acc + 1
        | _ -> acc)
      0 (Lazy.force sc.oracle)
  in
  !stray + miscounted + wrong

(* One rep: every scenario once. Latency percentiles are averaged over
   the scenarios; the accelerated share is over all their requests. *)
let outcome timed =
  let mean f =
    Stats.mean (Array.of_list (List.map (fun (_, s, _) -> f s) timed))
  in
  let sum f = List.fold_left (fun n x -> n + f x) 0 timed in
  let ops = sum (fun (sc, _, _) -> Array.length sc.requests) in
  let accelerated =
    sum (fun (_, s, _) ->
        List.length
          (List.filter (fun (r : Fleet.result) -> r.Fleet.rs_accelerated)
             s.results))
  in
  let d = Buffer.create 4096 in
  List.iter (fun (_, s, _) -> Buffer.add_string d s.report) timed;
  { M.ops;
    failed = sum (fun (sc, s, _) -> failures sc s.results);
    seconds = List.fold_left (fun t (_, _, dt) -> t +. dt) 0.0 timed;
    op_seconds = [||];
    exact =
      [ ("vlat_p50_ms", mean (fun s -> s.p50));
        ("vlat_p99_ms", mean (fun s -> s.p99));
        ("accel_share", float_of_int accelerated /. float_of_int (max 1 ops)) ];
    digest = M.digest_of_buffer d }

(* ---------- replays ---------- *)

let app_index (apps : Fleet.app array) name =
  let rec go i =
    if i >= Array.length apps then
      failwith (Printf.sprintf "replay: unknown app %s" name)
    else if String.equal apps.(i).Fleet.ap_name name then i
    else go (i + 1)
  in
  go 0

(* Replays each recorded batch, in launch order, once through
   [Blaze.map_accelerated] and once through the serde / [Cinterp] /
   estimate calls it is made of; then each recorded JVM fallback through
   [Blaze.map_jvm]. A batch's payloads are the next [size] requests of
   its app in arrival order: exactly what a FIFO queue launched in
   serve-1k, and a stand-in of the same app and size otherwise. Replays
   use each app's initial design; a promoted design changes only
   timing, not the work value computation does. *)
let replay l sc (sink : Sink.t) =
  let napps = Array.length sc.apps in
  let payloads =
    Array.init napps (fun a ->
        Array.of_list
          (List.filter_map
             (fun (r : Fleet.request) ->
               if r.Fleet.rq_app = a then Some r.Fleet.rq_payload else None)
             (Array.to_list sc.requests)))
  in
  let cursor = Array.make napps 0 in
  let take a n =
    Array.init n (fun _ ->
        let p = payloads.(a) in
        let v = p.(cursor.(a) mod Array.length p) in
        cursor.(a) <- cursor.(a) + 1;
        v)
  in
  let batches =
    List.map
      (fun (name, size) ->
        let a = app_index sc.apps name in
        (a, take a size))
      (List.rev sink.Sink.batches)
  in
  let mgr = Blaze.create_manager () in
  Array.iter (fun (app : Fleet.app) -> Blaze.register mgr app.Fleet.ap_accel) sc.apps;
  List.iter
    (fun (a, tasks) ->
      let id = sc.apps.(a).Fleet.ap_accel.Blaze.acc_id in
      ignore
        (M.lap l "blaze.accel_s" (fun () -> Blaze.map_accelerated mgr ~id tasks)))
    batches;
  List.iter
    (fun (a, tasks) ->
      let acc = sc.apps.(a).Fleet.ap_accel in
      let iface = acc.Blaze.acc_iface in
      let n = Array.length tasks in
      let outputs, args =
        M.lap l "serde.s" (fun () ->
            let inputs =
              Serde.serialize_inputs iface acc.Blaze.acc_input_ty tasks
            in
            let outputs = Serde.alloc_outputs iface n in
            let fields = Serde.field_buffers iface acc.Blaze.acc_fields in
            (outputs, (("N", Cinterp.VI n) :: inputs) @ outputs @ fields))
      in
      M.lap l "cinterp.s" (fun () ->
          ignore
            (Cinterp.run_func acc.Blaze.acc_prog iface.Decompile.if_kernel args));
      M.lap l "serde.s" (fun () ->
          ignore
            (Array.init n (fun t ->
                 Serde.deserialize_output iface acc.Blaze.acc_output_ty outputs
                   t)));
      ignore
        (M.lap l "hls.estimate_s" (fun () ->
             Estimate.estimate acc.Blaze.acc_prog ~tasks:n
               ~buffer_elems:acc.Blaze.acc_buffer_elems));
      M.add l "serde.bytes" (Serde.bytes_of_iface iface ~tasks:n);
      M.add l "cinterp.tasks" (float_of_int n))
    batches;
  let by_key = Hashtbl.create (Array.length sc.requests) in
  Array.iter
    (fun (r : Fleet.request) ->
      Hashtbl.replace by_key (r.Fleet.rq_app, r.Fleet.rq_id) r)
    sc.requests;
  List.iter
    (fun (name, id) ->
      let a = app_index sc.apps name in
      let app = sc.apps.(a) in
      let r = Hashtbl.find by_key (a, id) in
      ignore
        (M.lap l "jvm.fallback_s" (fun () ->
             Blaze.map_jvm app.Fleet.ap_cls ~fields:app.Fleet.ap_fields
               [| r.Fleet.rq_payload |])))
    (List.rev sink.Sink.fallbacks);
  List.iter
    (fun (k, v) -> M.add l k (float_of_int v))
    [ ("hls.evals", sink.Sink.n_batches);
      ("jvm.fallbacks", sink.Sink.n_fallbacks);
      ("fleet.events", sink.Sink.events);
      ("fleet.batches", sink.Sink.n_batches);
      ("fleet.reconfigs", sink.Sink.reconfigs) ]

(* Sink counts must equal the counters the program reports. *)
let count_mismatches sink counters =
  List.length
    (List.filter
       (fun (what, seen, reported) ->
         let n = seen sink in
         if n <> reported then
           Printf.eprintf "sink counted %d %s, report says %d\n" n what reported;
         n <> reported)
       counters)

(* [total f] reads [f] off the run's pool report(s). *)
let fleet_counters total =
  [ ("batches", (fun s -> s.Sink.n_batches), total (fun p -> p.Fleet.rp_batches));
    ( "fallbacks",
      (fun s -> s.Sink.n_fallbacks),
      total (fun p -> p.Fleet.rp_fallbacks) );
    ("reconfigs", (fun s -> s.Sink.reconfigs), total (fun p -> p.Fleet.rp_reconfigs)) ]

let layer_names =
  [ "blaze.accel_s"; "serde.s"; "serde.bytes"; "cinterp.s"; "cinterp.tasks";
    "hls.estimate_s"; "hls.evals"; "jvm.fallback_s"; "jvm.fallbacks";
    "fleet.events"; "fleet.batches"; "fleet.reconfigs";
    "federation.autoscale_actions"; "federation.retunes";
    "federation.retune_evals"; "dse.retune_s" ]

let instance scenarios =
  let unit_ () =
    outcome
      (List.map
         (fun sc ->
           let s, dt = M.time (fun () -> sc.serve None) in
           (sc, s, dt))
         scenarios)
  in
  let traced ~untraced_s =
    let l = M.laps () in
    let timed, bad =
      List.fold_left
        (fun (timed, bad) sc ->
          let sink, sk = Sink.create () in
          let s, dt = M.time (fun () -> sc.serve (Some (Telemetry.create ~sinks:[ sk ] ()))) in
          replay l sc sink;
          sc.extra l sink;
          ((sc, s, dt) :: timed, bad + count_mismatches sink s.counters))
        ([], 0) scenarios
    in
    let o = outcome (List.rev timed) in
    let g = M.get l in
    (* The event core is what the untraced median leaves after the
       replayed value computation and re-tuning. *)
    let core =
      untraced_s -. g "blaze.accel_s" -. g "jvm.fallback_s" -. g "dse.retune_s"
    in
    ( { o with M.failed = o.M.failed + bad },
      List.map (fun k -> (k, g k)) layer_names
      @ [ ( "fleet.mean_batch",
            g "cinterp.tasks" /. Float.max 1.0 (g "fleet.batches") );
          ("fleet.core_s", core);
          ( "federation.cross_region_share",
            g "federation.cross" /. Float.max 1.0 (g "federation.routes") ) ] )
  in
  { M.unit_; traced }

(* ---------- serve-1k ---------- *)

let serve_setup ~seed ~smoke laps =
  let tenants =
    [ Traffic.tenant ~rate:7000.0 ~batch:8 ~queue_cap:100_000
        (Option.get (W.find "PR")) ]
  in
  let horizon = if smoke then 0.2 else 5.0 in
  let apps =
    M.lap laps "workloads.traffic_s" (fun () -> Traffic.apps ~seed tenants)
  in
  let requests =
    M.lap laps "workloads.traffic_s" (fun () ->
        Traffic.requests ~seed ~horizon tenants)
  in
  let opts = { Fleet.default_opts with Fleet.o_devices = 1000 } in
  let serve trace =
    let oc = Fleet.serve ~opts ?trace apps requests in
    let rp = oc.Fleet.oc_report in
    let lat =
      Array.of_list
        (List.map
           (fun (r : Fleet.result) -> r.Fleet.rs_latency *. 1000.0)
           oc.Fleet.oc_results)
    in
    { results = oc.Fleet.oc_results;
      report = Fleet.report_to_string rp;
      p50 = Stats.p50 lat;
      p99 = Stats.p99 lat;
      counters = fleet_counters (fun f -> f rp) }
  in
  instance [ scenario ~seed apps requests ~serve ~extra:(fun _ _ -> ()) ]

let serve_1k = { M.name = "serve-1k"; units = 20; setup = serve_setup }

(* ---------- fed-mixed ---------- *)

let regions =
  [ Traffic.region "east";
    Traffic.region ~scale:2.0 "west";
    Traffic.region ~scale:0.5 "apac" ]

(* One-way RTT between regions, seconds: east-west 2 ms, east-apac 5 ms,
   west-apac 6 ms. Cluster i is region i's local pool. *)
let rtt_s =
  [| [| 0.0; 0.002; 0.005 |]; [| 0.002; 0.0; 0.006 |]; [| 0.005; 0.006; 0.0 |] |]

let fed_scenarios = 6

let fed_scenario laps ~horizon seed =
  let tenants =
    List.map
      (fun (name, rate) ->
        Traffic.tenant ~rate ~batch:16 ~queue_cap:64 (Option.get (W.find name)))
      [ ("KMeans", 300.0); ("LR", 200.0); ("S-W", 20.0); ("PR", 400.0) ]
  in
  let apps =
    M.lap laps "workloads.traffic_s" (fun () -> Traffic.apps ~seed tenants)
  in
  let compiled =
    Array.of_list
      (List.map
         (fun tn ->
           M.lap laps "workloads.compile_s" (fun () ->
               W.compile tn.Traffic.tn_workload))
         tenants)
  in
  let fed_tenants =
    List.mapi (fun i _ -> Fed.tenant ~compiled:compiled.(i) apps.(i)) tenants
  in
  let requests =
    M.lap laps "workloads.traffic_s" (fun () ->
        Traffic.regional_requests ~seed ~horizon regions tenants)
  in
  let names = List.map (fun (rg : Traffic.region) -> rg.Traffic.rg_name) regions in
  let clusters =
    List.mapi (fun i name -> Fed.cluster ~devices:2 ~rtt_s:rtt_s.(i) name) names
  in
  let opts =
    { Fed.default_opts with
      Fed.fd_route = Fed.Cache_affinity;
      fd_seed = seed;
      fd_autoscale =
        Some
          { Fed.default_autoscale with
            Fed.as_interval_s = 0.05;
            as_max_devices = 4 };
      fd_retune = Some (Fed.retune ~epoch_s:0.25 5.0) }
  in
  let serve trace =
    let oc = Fed.serve ~opts ?trace ~clusters fed_tenants requests in
    let r = oc.Fed.fo_report in
    let sum f =
      List.fold_left (fun n cr -> n + f cr.Fed.cr_report) 0 r.Fed.fr_clusters
    in
    { results = List.map snd oc.Fed.fo_results;
      report = Fed.report_to_string r;
      p50 = r.Fed.fr_p50_ms;
      p99 = r.Fed.fr_p99_ms;
      counters =
        fleet_counters sum
        @ [ ("retunes", (fun s -> List.length s.Sink.retunes), r.Fed.fr_retunes);
            ("leases", (fun s -> s.Sink.leases), r.Fed.fr_leases) ] }
  in
  (* Each re-tune again, with the loop's options and a per-tenant result
     database, on an independent stream: the loop's own RNG derivation
     is private to the federation. *)
  let extra l (sink : Sink.t) =
    let dbs = Array.map (fun _ -> Resultdb.create ()) compiled in
    List.iter
      (fun (app, epoch, evals) ->
        let ti = app_index apps app in
        let rng = Rng.create ((seed * 7919) + (ti * 131) + epoch) in
        M.lap l "dse.retune_s" (fun () ->
            ignore
              (S2fa.explore ~opts:Fed.default_retune_opts ~db:dbs.(ti)
                 compiled.(ti) rng));
        M.add l "federation.retunes" 1.0;
        M.add l "federation.retune_evals" (float_of_int evals))
      (List.rev sink.Sink.retunes);
    M.add l "federation.autoscale_actions" (float_of_int sink.Sink.autoscale);
    List.iter
      (fun (region, cluster) ->
        M.add l "federation.routes" 1.0;
        if not (String.equal (List.nth names region) cluster) then
          M.add l "federation.cross" 1.0)
      sink.Sink.routes
  in
  scenario ~seed apps (List.map snd requests) ~serve ~extra

let fed_setup ~seed ~smoke laps =
  let horizon = if smoke then 0.2 else 1.0 in
  let n = if smoke then 1 else fed_scenarios in
  instance (List.init n (fun i -> fed_scenario laps ~horizon (seed + i)))

let fed_mixed = { M.name = "fed-mixed"; units = 15; setup = fed_setup }
