module Rng = S2fa_util.Rng
module Fleet = S2fa_fleet.Fleet
module S2fa = S2fa_core.S2fa
module Seed = S2fa_dse.Seed

type tenant = {
  tn_workload : Workloads.t;
  tn_rate : float;
  tn_weight : float;
  tn_batch : int;
  tn_queue_cap : int;
}

let tenant ?(rate = 100.0) ?(weight = 1.0) ?(batch = 16) ?(queue_cap = 64) w =
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Traffic.tenant: rate must be positive and finite";
  { tn_workload = w;
    tn_rate = rate;
    tn_weight = weight;
    tn_batch = batch;
    tn_queue_cap = queue_cap }

(* Each tenant owns three private SplitMix64 streams — arrivals,
   payloads, broadcast fields — derived from (seed, tenant index) alone.
   Adding, removing or re-rating one tenant therefore never perturbs
   another tenant's schedule, and `requests` and `apps` can be called
   independently (even in either order) yet stay mutually consistent. *)
let streams seed i =
  let root = Rng.create ((seed * 0x3779_97f5) lxor ((i + 1) * 0x9e37_79b9)) in
  let arr = Rng.split root in
  let pay = Rng.split root in
  let fld = Rng.split root in
  (arr, pay, fld)

let requests ~seed ~horizon tenants =
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg "Traffic.requests: horizon must be positive and finite";
  let per_tenant =
    List.mapi
      (fun i tn ->
        let arr, pay, _ = streams seed i in
        (* Open-loop Poisson arrivals: exponential gaps at tn_rate. *)
        let rec go t id acc =
          let u = Rng.float arr 1.0 in
          let t = t +. (-.log (1.0 -. u) /. tn.tn_rate) in
          if t >= horizon then List.rev acc
          else
            let payload = (tn.tn_workload.Workloads.w_gen pay 1).(0) in
            go t (id + 1)
              ({ Fleet.rq_app = i; rq_id = id; rq_arrival = t;
                 rq_deadline = None; rq_payload = payload }
              :: acc)
        in
        go 0.0 0 [])
      tenants
  in
  let order (a : Fleet.request) (b : Fleet.request) =
    compare
      (a.Fleet.rq_arrival, a.Fleet.rq_app, a.Fleet.rq_id)
      (b.Fleet.rq_arrival, b.Fleet.rq_app, b.Fleet.rq_id)
  in
  List.fold_left (List.merge order) [] per_tenant

(* ---------- multi-region traffic (the federation's ingress) ---------- *)

type region = { rg_name : string; rg_scale : float }

let region ?(scale = 1.0) name =
  if not (scale > 0.0 && Float.is_finite scale) then
    invalid_arg "Traffic.region: scale must be positive and finite";
  { rg_name = name; rg_scale = scale }

(* Each (region, tenant) pair owns private streams: the single-region
   derivation with the region index folded into the root seed by a
   third odd constant, so no (region, tenant) pair shares a stream with
   any other pair — or with the single-region streams above. Request
   ids carry the region in the high bits, keeping (app, id) unique
   federation-wide. *)
let region_id_shift = 40
let max_regions = 1 lsl (53 - region_id_shift)

let rstreams seed ri i =
  let root =
    Rng.create
      (((seed * 0x3779_97f5) lxor ((i + 1) * 0x9e37_79b9))
      lxor ((ri + 1) * 0x2545_f491_4f6c_dd1d))
  in
  let arr = Rng.split root in
  let pay = Rng.split root in
  let fld = Rng.split root in
  (arr, pay, fld)

let regional_requests ~seed ~horizon regions tenants =
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg
      "Traffic.regional_requests: horizon must be positive and finite";
  if regions = [] then
    invalid_arg "Traffic.regional_requests: need at least one region";
  if List.length regions > max_regions then
    invalid_arg
      (Printf.sprintf "Traffic.regional_requests: more than %d regions"
         max_regions);
  let per_stream =
    List.concat
      (List.mapi
         (fun ri rg ->
           List.mapi
             (fun i tn ->
               let arr, pay, _ = rstreams seed ri i in
               let rate = tn.tn_rate *. rg.rg_scale in
               let rec go t id acc =
                 let u = Rng.float arr 1.0 in
                 let t = t +. (-.log (1.0 -. u) /. rate) in
                 if t >= horizon then List.rev acc
                 else
                   let payload = (tn.tn_workload.Workloads.w_gen pay 1).(0) in
                   go t (id + 1)
                     (( ri,
                        { Fleet.rq_app = i;
                          rq_id = (ri lsl region_id_shift) lor id;
                          rq_arrival = t;
                          rq_deadline = None;
                          rq_payload = payload } )
                     :: acc)
               in
               go 0.0 0 [])
             tenants)
         regions)
  in
  let order (_, (a : Fleet.request)) (_, (b : Fleet.request)) =
    compare
      (a.Fleet.rq_arrival, a.Fleet.rq_app, a.Fleet.rq_id)
      (b.Fleet.rq_arrival, b.Fleet.rq_app, b.Fleet.rq_id)
  in
  List.fold_left (List.merge order) [] per_stream

let apps ~seed tenants =
  Array.of_list
    (List.mapi
       (fun i tn ->
         let _, _, fld = streams seed i in
         let w = tn.tn_workload in
         let c = Workloads.compile w in
         let design = Seed.structured_seed c.S2fa.c_dspace in
         S2fa.serve_app ~design ~weight:tn.tn_weight ~batch:tn.tn_batch
           ~queue_cap:tn.tn_queue_cap ~name:w.Workloads.w_name
           ~fields:(w.Workloads.w_fields fld) c)
       tenants)
