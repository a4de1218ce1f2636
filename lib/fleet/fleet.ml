module Rng = S2fa_util.Rng
module Stats = S2fa_util.Stats
module Pheap = S2fa_util.Pheap
module Device = S2fa_hls.Device
module Estimate = S2fa_hls.Estimate
module Insn = S2fa_jvm.Insn
module Interp = S2fa_jvm.Interp
module Blaze = S2fa_blaze.Blaze
module Serde = S2fa_blaze.Serde
module Telemetry = S2fa_telemetry.Telemetry
module Json = S2fa_telemetry.Telemetry.Json
module Checkpoint = S2fa_telemetry.Checkpoint
module Obs = S2fa_obs.Obs
module Fault = S2fa_fault.Fault

exception Fleet_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fleet_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Applications, requests, policies *)
(* ------------------------------------------------------------------ *)

type app = {
  ap_name : string;
  ap_accel : Blaze.accel;
  ap_cls : Insn.cls;
  ap_fields : (string * Interp.value) list;
  ap_weight : float;
  ap_batch : int;
  ap_queue_cap : int;
}

type request = {
  rq_app : int;
  rq_id : int;
  rq_arrival : float;
  rq_deadline : float option;
  rq_payload : Interp.value;
}

type policy = Fcfs | Sjf | Affinity | Fair

let all_policies = [ Fcfs; Sjf; Affinity; Fair ]

let policy_name = function
  | Fcfs -> "fcfs"
  | Sjf -> "sjf"
  | Affinity -> "affinity"
  | Fair -> "fair"

let policy_of_name = function
  | "fcfs" -> Some Fcfs
  | "sjf" -> Some Sjf
  | "affinity" -> Some Affinity
  | "fair" -> Some Fair
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The SLO control plane's configuration *)
(* ------------------------------------------------------------------ *)

type breaker_cfg = {
  bk_failures : int;
  bk_cooldown_s : float;
  bk_probes : int;
}

let default_breaker = { bk_failures = 3; bk_cooldown_s = 5.0; bk_probes = 2 }

type slo = {
  sl_hang_factor : float;
  sl_hedge : bool;
  sl_breaker : breaker_cfg option;
}

let no_slo = { sl_hang_factor = infinity; sl_hedge = false; sl_breaker = None }

type opts = {
  o_devices : int;
  o_device : Device.t;
  o_policy : policy;
  o_pcie_gbps : float;
  o_invoke_seconds : float;
  o_slo : slo;
}

let default_opts =
  { o_devices = 2;
    o_device = Device.vu9p;
    o_policy = Fcfs;
    o_pcie_gbps = 8.0;
    o_invoke_seconds = 5.0e-4;
    o_slo = no_slo }

let with_deadline slo_seconds requests =
  if not (slo_seconds > 0.0 && Float.is_finite slo_seconds) then
    fail "deadline offset must be positive and finite";
  List.map
    (fun r -> { r with rq_deadline = Some (r.rq_arrival +. slo_seconds) })
    requests

(* ------------------------------------------------------------------ *)
(* Results and the serving report *)
(* ------------------------------------------------------------------ *)

type result = {
  rs_app : int;
  rs_id : int;
  rs_value : Interp.value;
  rs_done : float;
  rs_latency : float;
  rs_accelerated : bool;
}

type app_report = {
  ar_app : string;
  ar_weight : float;
  ar_requests : int;
  ar_accelerated : int;
  ar_fallbacks : int;
  ar_p50_ms : float;
  ar_p95_ms : float;
  ar_p99_ms : float;
  ar_mean_ms : float;
  ar_share : float;
}

type report = {
  rp_policy : string;
  rp_devices : int;
  rp_device_name : string;
  rp_requests : int;
  rp_accelerated : int;
  rp_fallbacks : int;
  rp_batches : int;
  rp_reconfigs : int;
  rp_requeued : int;
  rp_devices_lost : int;
  rp_shed : int;
  rp_timeouts : int;
  rp_hedges : int;
  rp_breaker_trips : int;
  rp_deadline_hits : int;
  rp_deadline_misses : int;
  rp_makespan : float;
  rp_throughput : float;
  rp_fairness : float;
  rp_apps : app_report list;
}

type outcome = { oc_report : report; oc_results : result list }

(* ------------------------------------------------------------------ *)
(* A small FIFO that also supports re-queueing at the front (in-flight
   work recovered from a lost or cancelled batch must not lose its
   place) *)
(* ------------------------------------------------------------------ *)

type 'a dq = {
  mutable dq_front : 'a list;
  mutable dq_back : 'a list;
  mutable dq_len : int;
}

let dq_create () = { dq_front = []; dq_back = []; dq_len = 0 }

let dq_len q = q.dq_len

let dq_norm q =
  if q.dq_front = [] then begin
    q.dq_front <- List.rev q.dq_back;
    q.dq_back <- []
  end

let dq_push q x =
  q.dq_back <- x :: q.dq_back;
  q.dq_len <- q.dq_len + 1

let dq_push_front q xs =
  (* One pass: prepend and count together (callers hand over in-flight
     batches whose length they never computed). *)
  let n = ref 0 in
  let rec prepend = function
    | [] -> q.dq_front
    | x :: tl ->
      incr n;
      x :: prepend tl
  in
  q.dq_front <- prepend xs;
  q.dq_len <- q.dq_len + !n

let dq_peek q =
  dq_norm q;
  match q.dq_front with x :: _ -> Some x | [] -> None

let dq_take q n =
  (* Normalize only when the front actually runs dry — at most once per
     take, since a flip leaves the back empty. *)
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match q.dq_front with
      | x :: tl ->
        q.dq_front <- tl;
        q.dq_len <- q.dq_len - 1;
        go (n - 1) (x :: acc)
      | [] ->
        if q.dq_back = [] then List.rev acc
        else begin
          dq_norm q;
          go n acc
        end
  in
  go n []

let dq_drain q = dq_take q (dq_len q)

let dq_to_list q = q.dq_front @ List.rev q.dq_back

(* Exposed so [test/test_heap.ml] can model-check the deque against a
   plain list under arbitrary operation interleavings. *)
module Dq = struct
  type 'a t = 'a dq

  let create = dq_create
  let len = dq_len
  let push = dq_push
  let push_front = dq_push_front
  let peek = dq_peek
  let take = dq_take
  let drain = dq_drain
  let to_list = dq_to_list
end

(* ------------------------------------------------------------------ *)
(* The discrete-event simulator *)
(* ------------------------------------------------------------------ *)

(* Every future event lives in indexed binary min-heaps. An event's key
   is (time, kind_rank, i, j): rank 0 = the head arrival, rank 1 = a
   device's next completion/timeout/loss (i = device index), rank 2 = a
   pending JVM completion (i, j = app, request id) — a fixed priority on
   equal times. Breaker reopens live in a separate heap because their
   visibility is gated on pending work (see the event loop). *)
type ev =
  | Ev_arrival
  | Ev_device of int
  | Ev_jvm of (float * request * Interp.value)

type bstate = Healthy | Probation of int | Quarantined | Half_open of int

let bstate_name = function
  | Healthy -> "healthy"
  | Probation _ -> "probation"
  | Quarantined -> "quarantined"
  | Half_open _ -> "half_open"

(* The checkpoint encoding keeps the counter so a regenerated state
   matches byte-for-byte, not just by phase. *)
let bstate_detail = function
  | Healthy -> "healthy"
  | Probation k -> Printf.sprintf "probation:%d" k
  | Quarantined -> "quarantined"
  | Half_open k -> Printf.sprintf "half_open:%d" k

type busy = {
  b_app : int;
  b_reqs : request list;
  b_launched : float;
  b_done : float;          (* actual completion (stalled when hung) *)
  b_timeout : float;       (* watchdog fire time; infinity = disarmed *)
  b_lost : float option;   (* absolute loss time, within [launch, done) *)
  b_group : int;           (* shared by a hedged batch and its twin *)
  b_hedged : bool;         (* a twin copy may exist *)
}

type dev = {
  mutable d_loaded : int option;
  mutable d_busy : busy option;
  mutable d_alive : bool;
  mutable d_released : bool; (* parked by the autoscaler, not a fault *)
  mutable d_state : bstate;
  mutable d_reopen : float;  (* absolute half-open probe time *)
}

let check_apps apps =
  Array.iteri
    (fun i (a : app) ->
      if a.ap_batch < 1 then fail "app %d (%s): batch must be >= 1" i a.ap_name;
      if a.ap_queue_cap < 1 then
        fail "app %d (%s): queue capacity must be >= 1" i a.ap_name;
      if not (Float.is_finite a.ap_weight) then
        fail "app %d (%s): weight must be finite" i a.ap_name;
      if not (a.ap_weight > 0.0) then
        fail "app %d (%s): weight must be positive" i a.ap_name)
    apps

let check_slo s =
  if not (s.sl_hang_factor > 1.0) then
    fail "slo: hang factor must be > 1 (infinity disables the watchdog)";
  match s.sl_breaker with
  | None -> ()
  | Some c ->
    if c.bk_failures < 1 then
      fail "slo: breaker failure threshold must be >= 1";
    if not (c.bk_cooldown_s > 0.0 && Float.is_finite c.bk_cooldown_s) then
      fail "slo: breaker cooldown must be positive and finite";
    if c.bk_probes < 1 then fail "slo: breaker probe count must be >= 1"

let request_order a b =
  compare (a.rq_arrival, a.rq_app, a.rq_id) (b.rq_arrival, b.rq_app, b.rq_id)

(* ------------------------------------------------------------------ *)
(* Mid-serve checkpoints: framing, atomic writes, the truncation guard
   and the resume verdict are [Checkpoint]'s; the header, the body lines
   and the trigger (an event count) are the fleet's *)
(* ------------------------------------------------------------------ *)

type ck_spec = {
  cks_path : string;
  cks_every_s : float;
  cks_meta : (string * string) list;
}

type snapshot = {
  fk_events : int;
  fk_now : float;
  fk_every : float;
  fk_meta : (string * string) list;
  fk_lines : string list;
}

(* The body is compared, not decoded: a resume checks it line by line. *)
let snapshot_of_checkpoint (c : Checkpoint.t) =
  Json.located ~file:c.c_file @@ fun () ->
  let n, header = c.c_header in
  let every = Json.get_at n Json.get_float header "every" in
  if not (every > 0.0) then
    Json.bad_line n "checkpoint interval must be positive";
  { fk_events = Json.get_at n Json.get_int header "events";
    fk_now = Json.get_at n Json.get_float header "now";
    fk_every = every;
    fk_meta = c.c_meta;
    fk_lines = c.c_lines }

let load_checkpoint path =
  Result.bind (Checkpoint.read ~kinds:[ "fleet" ] path) snapshot_of_checkpoint

(* ------------------------------------------------------------------ *)
(* Serving *)
(* ------------------------------------------------------------------ *)

(* The stepping/mailbox interface over one pool's simulation. A [sim]
   is the serve loop turned inside out: the driver (plain [serve], or
   the federation's global event heap) owns the loop and the sim
   exposes one-event steps, just-in-time arrival injection, device
   lease/release for autoscaling, and live design promotion. Running
   [s_step] to exhaustion and then [s_finish] is byte-identical to
   [serve] — the goldens prove it. *)
type sim = {
  s_step : unit -> bool;
  s_next : unit -> float;
  s_now : unit -> float;
  s_inject : request -> unit;
  s_expect_more : bool -> unit;
  s_queue_depth : unit -> int;
  s_alive : unit -> int;
  s_routable : unit -> int;
  s_loaded : int -> bool;
  s_lease : unit -> bool;
  s_release : unit -> bool;
  s_update_app : int -> app -> unit;
  s_drain : unit -> result list;
  s_deadline_hits : unit -> int;
  s_deadline_misses : unit -> int;
  s_finish : unit -> outcome;
}

let make_sim_impl ~opts ?trace ?faults ?checkpoint ?validate
    (apps : app array) requests =
  if opts.o_devices < 1 then fail "need at least one device";
  check_apps apps;
  check_slo opts.o_slo;
  (match checkpoint with
  | Some c when not (c.cks_every_s > 0.0) ->
    fail "checkpoint interval must be positive"
  | _ -> ());
  let n_apps = Array.length apps in
  List.iter
    (fun r ->
      if r.rq_app < 0 || r.rq_app >= n_apps then
        fail "request %d targets unknown app %d" r.rq_id r.rq_app;
      match r.rq_deadline with
      | Some d when not (Float.is_finite d) ->
        fail "request %d: deadline must be finite" r.rq_id
      | _ -> ())
    requests;
  (* The sim owns its app table: a live promotion ([s_update_app]) must
     not mutate the caller's array. *)
  let apps = Array.copy apps in
  let arrivals = ref (List.sort request_order requests) in
  (* Accelerator ids may collide across tenants serving the same kernel;
     registration is keyed by tenant index instead. *)
  let uid i = Printf.sprintf "%d:%s" i apps.(i).ap_name in
  let mgr = Blaze.create_manager ?trace () in
  Array.iteri
    (fun i a -> Blaze.register mgr { a.ap_accel with Blaze.acc_id = uid i })
    apps;
  let queues = Array.init n_apps (fun _ -> dq_create ()) in
  let served = Array.make n_apps 0 in  (* dispatched to the pool *)
  let devs =
    Array.init opts.o_devices (fun _ ->
        { d_loaded = None;
          d_busy = None;
          d_alive = true;
          d_released = false;
          d_state = Healthy;
          d_reopen = infinity })
  in
  (* Event state. [ev_heap] holds the head arrival, one entry per busy
     device, and every pending JVM completion; [reopen_heap] one entry
     per quarantined-alive device; [idle_heap] the free-list of
     schedulable idle devices (keyed by index, lowest first). The side
     tables keep device -> handle in O(1). [refresh_device d] re-derives
     device d's membership in all three heaps from [devs] and is called
     after every mutation of a device's schedulable state — heap
     maintenance lives here, in one place, not in the handlers. *)
  (* Monomorphic comparators: polymorphic [Stdlib.compare] on tuple
     keys is the sift path's whole cost at fleet scale. *)
  let ev_cmp (t1, r1, i1, j1) (t2, r2, i2, j2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c
    else
      let c = Int.compare r1 r2 in
      if c <> 0 then c
      else
        let c = Int.compare i1 i2 in
        if c <> 0 then c else Int.compare j1 j2
  in
  let td_cmp (t1, d1) (t2, d2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare d1 d2
  in
  let ev_heap : (float * int * int * int, ev) Pheap.t =
    Pheap.create ~cmp:ev_cmp ()
  in
  let reopen_heap : (float * int, int) Pheap.t = Pheap.create ~cmp:td_cmp () in
  let idle_heap : (int, int) Pheap.t = Pheap.create ~cmp:Int.compare () in
  let dev_h = Array.make opts.o_devices None in
  let idle_h = Array.make opts.o_devices None in
  let reo_h = Array.make opts.o_devices None in
  let arr_h = ref None in
  let refresh_device d =
    let dev = devs.(d) in
    (match dev.d_busy with
    | Some b ->
      let t =
        Float.min
          (match b.b_lost with Some l -> l | None -> infinity)
          (Float.min b.b_done b.b_timeout)
      in
      let k = (t, 1, d, 0) in
      (match dev_h.(d) with
      | Some h -> Pheap.update ev_heap h k
      | None -> dev_h.(d) <- Some (Pheap.insert ev_heap k (Ev_device d)))
    | None -> (
      match dev_h.(d) with
      | Some h ->
        Pheap.remove ev_heap h;
        dev_h.(d) <- None
      | None -> ()));
    (match
       (idle_h.(d), dev.d_alive && dev.d_state <> Quarantined && dev.d_busy = None)
     with
    | None, true -> idle_h.(d) <- Some (Pheap.insert idle_heap d d)
    | Some h, false ->
      Pheap.remove idle_heap h;
      idle_h.(d) <- None
    | _ -> ());
    match (reo_h.(d), dev.d_alive && dev.d_state = Quarantined) with
    | None, true ->
      reo_h.(d) <- Some (Pheap.insert reopen_heap (dev.d_reopen, d) d)
    | Some h, true -> Pheap.update reopen_heap h (dev.d_reopen, d)
    | Some h, false ->
      Pheap.remove reopen_heap h;
      reo_h.(d) <- None
    | None, false -> ()
  in
  let reconfig_s = opts.o_device.Device.reconfig_minutes *. 60.0 in
  (* The per-batch cost model is deterministic per (app, size); memoize
     so SJF's probes and repeated launches don't re-run the estimator.
     The table is only ever read point-wise — nothing iterates it — so
     it cannot leak hash order into the simulation. *)
  let svc_memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let body_seconds a n =
    match Hashtbl.find_opt svc_memo (a, n) with
    | Some s -> s
    | None ->
      let acc = apps.(a).ap_accel in
      let xfer =
        Serde.bytes_of_iface acc.Blaze.acc_iface ~tasks:n
        /. (opts.o_pcie_gbps *. 1.0e9)
      in
      (* The estimator charges its modeled DSE minutes to the ambient
         clock; serving time is the event loop's, so restore it. *)
      let v0 = Obs.clock () in
      let r =
        Obs.span "fleet.estimate" (fun () ->
            Estimate.estimate ~device:opts.o_device acc.Blaze.acc_prog
              ~tasks:n ~buffer_elems:acc.Blaze.acc_buffer_elems)
      in
      Obs.set_clock v0;
      let s =
        opts.o_invoke_seconds +. xfer
        +. Float.max 0.0 r.Estimate.r_compute_seconds
      in
      Hashtbl.add svc_memo (a, n) s;
      s
  in
  let service_seconds d a n =
    (if devs.(d).d_loaded = Some a then 0.0 else reconfig_s)
    +. body_seconds a n
  in
  let now = ref 0.0 in
  let clocked emit_kind =
    match trace with
    | None -> ()
    | Some tr ->
      Telemetry.set_clock tr (!now /. 60.0);
      Telemetry.emit tr emit_kind
  in
  let results = ref [] in
  let res_count = ref 0 in
  let finished = ref false in
  (* Set by a driver that will inject arrivals the sim cannot yet see;
     holds the breaker-reopen gate open exactly as a non-empty
     [arrivals] list would. Always false under plain [serve]. *)
  let expect_more = ref false in
  let batches = ref 0 and reconfigs = ref 0 in
  let fallbacks = ref 0 and requeued = ref 0 and devices_lost = ref 0 in
  let shed_n = ref 0 and timeouts = ref 0 and hedges = ref 0 in
  let breaker_trips = ref 0 in
  let dl_hits = ref 0 and dl_misses = ref 0 in
  let groups = ref 0 in
  let events = ref 0 in
  (* O(1) mirrors of what used to be O(devices)/O(apps) rescans: the
     total queued backlog and the alive/schedulable pool sizes, updated
     at the few sites that change them. *)
  let total_queued = ref 0 in
  let n_alive = ref opts.o_devices in
  let n_routable = ref opts.o_devices in
  (* Completed-but-not-yet-collected JVM executions are filed in
     [ev_heap] under rank 2, ordered like the arrival stream by
     (t, app, id) so simultaneous completions resolve identically across
     runs. *)
  let jvm_order (ta, ra, _) (tb, rb, _) =
    compare (ta, ra.rq_app, ra.rq_id) (tb, rb.rq_app, rb.rq_id)
  in
  let fallback ~reason ~start r =
    Obs.span "fleet.fallback" @@ fun () ->
    Obs.count "fleet.fallbacks";
    let a = apps.(r.rq_app) in
    let tr = Blaze.map_jvm a.ap_cls ~fields:a.ap_fields [| r.rq_payload |] in
    incr fallbacks;
    clocked
      (Telemetry.Serve_fallback
         { app = a.ap_name; request = r.rq_id; reason });
    let t = start +. tr.Blaze.tr_seconds in
    ignore
      (Pheap.insert ev_heap (t, 2, r.rq_app, r.rq_id)
         (Ev_jvm (t, r, tr.Blaze.tr_values.(0))))
  in
  let alive_devices () = !n_alive in
  (* A quarantined device is alive but not schedulable: the breaker
     routes work around it until its half-open probe readmits it. *)
  let routable dv = dv.d_alive && dv.d_state <> Quarantined in
  let routable_count () = !n_routable in
  (* ---------- circuit breakers ---------- *)
  let set_bstate d st =
    let dev = devs.(d) in
    let from_ = bstate_name dev.d_state and to_ = bstate_name st in
    if from_ <> to_ then
      clocked
        (Telemetry.Serve_breaker
           { device = d; from_state = from_; to_state = to_ });
    (match (st, dev.d_state) with
    | Quarantined, Quarantined -> ()
    | Quarantined, _ ->
      incr breaker_trips;
      Obs.count "fleet.breaker_trips"
    | _ -> ());
    (if dev.d_alive then
       match (dev.d_state, st) with
       | Quarantined, Quarantined -> ()
       | Quarantined, _ -> incr n_routable
       | _, Quarantined -> decr n_routable
       | _ -> ());
    dev.d_state <- st;
    refresh_device d
  in
  let breaker_failure d =
    match opts.o_slo.sl_breaker with
    | None -> ()
    | Some c -> (
      let dev = devs.(d) in
      let quarantine () =
        set_bstate d Quarantined;
        dev.d_reopen <- !now +. c.bk_cooldown_s;
        refresh_device d
      in
      match dev.d_state with
      | Healthy ->
        if c.bk_failures <= 1 then quarantine ()
        else set_bstate d (Probation 1)
      | Probation k ->
        if k + 1 >= c.bk_failures then quarantine ()
        else set_bstate d (Probation (k + 1))
      | Half_open _ -> quarantine ()
      | Quarantined -> ())
  in
  let breaker_success d =
    match opts.o_slo.sl_breaker with
    | None -> ()
    | Some c -> (
      match devs.(d).d_state with
      | Probation _ -> set_bstate d Healthy
      | Half_open k ->
        if k + 1 >= c.bk_probes then set_bstate d Healthy
        else set_bstate d (Half_open (k + 1))
      | Healthy | Quarantined -> ())
  in
  (* ---------- the four policies, behind one signature ---------- *)
  (* A policy maps (device index) to the app whose queue the device
     should serve next, or None when every queue is empty. All
     tie-breaks fall through to the app index, so the choice never
     depends on iteration order of any unordered structure. *)
  let candidates () =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (if dq_len queues.(i) > 0 then i :: acc else acc)
    in
    go (n_apps - 1) []
  in
  let head_arrival a =
    match dq_peek queues.(a) with
    | Some r -> r.rq_arrival
    | None -> infinity
  in
  let argmin key = function
    | [] -> None
    | c :: cs ->
      Some
        (List.fold_left
           (fun best a -> if key a < key best then a else best)
           c cs)
  in
  let pick_fcfs cands = argmin (fun a -> (head_arrival a, a)) cands in
  let pick d =
    let cands = candidates () in
    match opts.o_policy with
    | Fcfs -> pick_fcfs cands
    | Sjf ->
      argmin
        (fun a ->
          let n = min (dq_len queues.(a)) apps.(a).ap_batch in
          (service_seconds d a n, a))
        cands
    | Affinity -> (
      (* Avoid paying this device's reconfiguration when its loaded
         bitstream still has work; otherwise schedule like FCFS. *)
      match devs.(d).d_loaded with
      | Some a when dq_len queues.(a) > 0 -> Some a
      | _ -> pick_fcfs cands)
    | Fair ->
      (* Start-time fair queueing over dispatched work: the app with
         the smallest weighted virtual time goes next, which keeps every
         backlogged app's share within one batch of its weight. *)
      argmin
        (fun a -> (float_of_int served.(a) /. apps.(a).ap_weight, a))
        cands
  in
  (* ---------- deadline-aware admission ---------- *)
  let has_loaded a =
    Array.exists (fun dv -> routable dv && dv.d_loaded = Some a) devs
  in
  (* Deterministic admission estimate from the existing cost model:
     queue wait (whole batches ahead, amortized over the routable pool)
     + reconfiguration (unless some routable device already carries this
     bitstream) + transfer + compute for the batch this request would
     join. An estimate, not a guarantee — but the same inputs always
     produce the same estimate, so shed decisions replay exactly. *)
  let estimate_completion a qlen =
    let pool = max 1 (routable_count ()) in
    let b = apps.(a).ap_batch in
    let wait =
      float_of_int (qlen / b)
      *. (reconfig_s +. body_seconds a b)
      /. float_of_int pool
    in
    let own =
      (if has_loaded a then 0.0 else reconfig_s)
      +. body_seconds a ((qlen mod b) + 1)
    in
    !now +. wait +. own
  in
  let shed ~stage r est =
    let dl = Option.get r.rq_deadline in
    incr shed_n;
    Obs.count "fleet.shed";
    clocked
      (Telemetry.Serve_shed
         { app = apps.(r.rq_app).ap_name;
           request = r.rq_id;
           stage;
           deadline_minutes = dl /. 60.0;
           estimate_minutes = est /. 60.0 });
    fallback ~reason:"deadline" ~start:!now r
  in
  (* ---------- launching ---------- *)
  let launch_batch ~hedge_from d a reqs =
    let dev = devs.(d) in
    let n = List.length reqs in
    let reconfig = dev.d_loaded <> Some a in
    let service = service_seconds d a n in
    (match hedge_from with
    | None ->
      served.(a) <- served.(a) + n;
      Obs.count ~by:n "fleet.batched_requests"
    | Some _ ->
      (* A hedge is a duplicate dispatch: it counts as an invocation but
         not as served work — fairness tracks requests, not copies. *)
      incr hedges;
      Obs.count "fleet.hedges");
    incr batches;
    Obs.count "fleet.batches";
    if reconfig then begin
      incr reconfigs;
      Obs.count "fleet.reconfigs";
      clocked
        (Telemetry.Serve_reconfig
           { device = d;
             from_app =
               (match dev.d_loaded with
               | Some p -> apps.(p).ap_name
               | None -> "");
             to_app = apps.(a).ap_name;
             minutes = opts.o_device.Device.reconfig_minutes })
    end;
    clocked
      (Telemetry.Serve_batch
         { app = apps.(a).ap_name;
           device = d;
           size = n;
           service_minutes = service /. 60.0 });
    (match hedge_from with
    | Some from_d ->
      clocked
        (Telemetry.Serve_hedge
           { app = apps.(a).ap_name;
             from_device = from_d;
             to_device = d;
             size = n })
    | None -> ());
    let lost =
      match faults with
      | None -> None
      | Some f -> (
        match Fault.serve_loss f with
        | None -> None
        | Some frac -> Some (!now +. (frac *. service)))
    in
    (* Drawn after the loss draw (the injector's documented order). A
       hang stalls the invocation far past its estimate; the watchdog —
       when armed — fires first and cancels or hedges it. *)
    let stall =
      match faults with None -> None | Some f -> Fault.serve_hang f
    in
    let done_t =
      !now
      +.
      match stall with
      | None -> service
      | Some frac -> service *. (4.0 +. (16.0 *. frac))
    in
    let timeout =
      let f = opts.o_slo.sl_hang_factor in
      if Float.is_finite f then begin
        let t = !now +. (f *. service) in
        if t < done_t then t else infinity
      end
      else infinity
    in
    let group =
      match hedge_from with
      | Some from_d -> (
        match devs.(from_d).d_busy with
        | Some b -> b.b_group
        | None -> assert false)
      | None ->
        incr groups;
        !groups
    in
    dev.d_loaded <- Some a;
    dev.d_busy <-
      Some
        { b_app = a;
          b_reqs = reqs;
          b_launched = !now;
          b_done = done_t;
          b_timeout = timeout;
          b_lost = lost;
          b_group = group;
          b_hedged = hedge_from <> None };
    refresh_device d
  in
  let rec launch d a =
    Obs.span "fleet.launch" @@ fun () ->
    let reqs = dq_take queues.(a) apps.(a).ap_batch in
    total_queued := !total_queued - List.length reqs;
    let svc0 = service_seconds d a (List.length reqs) in
    (* Dispatch-time deadline re-check: the queue-wait estimate paid at
       admission is gone; now the batch's own service time decides. *)
    let keep, doomed =
      List.partition
        (fun r ->
          match r.rq_deadline with
          | Some dl -> !now +. svc0 <= dl
          | None -> true)
        reqs
    in
    List.iter (fun r -> shed ~stage:"dispatch" r (!now +. svc0)) doomed;
    match keep with
    | [] -> (
      (* Everything shed; this device is still free — pick again. *)
      match pick d with Some a' -> launch d a' | None -> ())
    | _ -> launch_batch ~hedge_from:None d a keep
  in
  let try_dispatch () =
    (* O(ready), not O(pool): pop idle devices (lowest index first)
       while any work is queued. Every policy returns [Some app] whenever
       any queue is non-empty, so a popped device always launches —
       unless its launch sheds the whole backlog, which zeroes
       [total_queued] and ends the loop with the device re-filed as
       idle. *)
    let continue_ = ref true in
    while !continue_ && !total_queued > 0 do
      match Pheap.pop idle_heap with
      | None -> continue_ := false
      | Some (_, d) ->
        idle_h.(d) <- None;
        (match pick d with Some a -> launch d a | None -> ());
        refresh_device d
    done
  in
  let drain_to_jvm () =
    (* Graceful degradation's last resort: with the whole pool gone,
       everything still queued runs on the JVM baseline from now on. *)
    Array.iter
      (fun q ->
        let drained = dq_drain q in
        total_queued := !total_queued - List.length drained;
        List.iter (fun r -> fallback ~reason:"no_devices" ~start:!now r)
          drained)
      queues
  in
  let handle_arrival r =
    now := r.rq_arrival;
    Obs.set_clock (!now /. 60.0);
    if alive_devices () = 0 then fallback ~reason:"no_devices" ~start:!now r
    else begin
      let q = queues.(r.rq_app) in
      let est_miss =
        match r.rq_deadline with
        | Some dl ->
          let est = estimate_completion r.rq_app (dq_len q) in
          if est > dl then Some est else None
        | None -> None
      in
      match est_miss with
      | Some est -> shed ~stage:"enqueue" r est
      | None ->
        if dq_len q >= apps.(r.rq_app).ap_queue_cap then
          fallback ~reason:"overflow" ~start:!now r
        else begin
          dq_push q r;
          incr total_queued;
          clocked
            (Telemetry.Serve_enqueue
               { app = apps.(r.rq_app).ap_name;
                 request = r.rq_id;
                 queue_len = dq_len q });
          try_dispatch ()
        end
    end
  in
  let complete ~accelerated r value =
    Obs.count "fleet.completions";
    incr res_count;
    let latency = !now -. r.rq_arrival in
    results :=
      { rs_app = r.rq_app;
        rs_id = r.rq_id;
        rs_value = value;
        rs_done = !now;
        rs_latency = latency;
        rs_accelerated = accelerated }
      :: !results;
    clocked
      (Telemetry.Serve_complete
         { app = apps.(r.rq_app).ap_name;
           request = r.rq_id;
           latency_minutes = latency /. 60.0;
           accelerated });
    match r.rq_deadline with
    | None -> ()
    | Some dl ->
      let met = !now <= dl in
      if met then incr dl_hits else incr dl_misses;
      clocked
        (Telemetry.Serve_deadline
           { app = apps.(r.rq_app).ap_name;
             request = r.rq_id;
             met;
             slack_minutes = (dl -. !now) /. 60.0 })
  in
  let twin_of d group =
    let found = ref None in
    Array.iteri
      (fun i dv ->
        if i <> d && !found = None then
          match dv.d_busy with
          | Some b when b.b_group = group -> found := Some i
          | _ -> ())
      devs;
    !found
  in
  let cancel_requeue d (b : busy) =
    let a = b.b_app in
    let n = List.length b.b_reqs in
    devs.(d).d_busy <- None;
    refresh_device d;
    requeued := !requeued + n;
    served.(a) <- served.(a) - n;
    dq_push_front queues.(a) b.b_reqs;
    total_queued := !total_queued + n;
    List.iter
      (fun r ->
        clocked
          (Telemetry.Serve_enqueue
             { app = apps.(a).ap_name;
               request = r.rq_id;
               queue_len = dq_len queues.(a) }))
      b.b_reqs
  in
  let handle_timeout d (b : busy) =
    now := b.b_timeout;
    Obs.set_clock (!now /. 60.0);
    let a = b.b_app in
    incr timeouts;
    Obs.count "fleet.timeouts";
    clocked
      (Telemetry.Serve_timeout
         { app = apps.(a).ap_name;
           device = d;
           size = List.length b.b_reqs;
           waited_minutes = (!now -. b.b_launched) /. 60.0 });
    breaker_failure d;
    (match twin_of d b.b_group with
    | Some _ ->
      (* Another copy is still running and will deliver; abandon this
         one without touching the queue. *)
      devs.(d).d_busy <- None;
      refresh_device d
    | None ->
      let hedge_to =
        if not opts.o_slo.sl_hedge then None
        else begin
          (* Lowest-index idle routable device, matching the event
             loop's tie-break direction. *)
          let d2 = ref None in
          Array.iteri
            (fun i dv ->
              if !d2 = None && i <> d && routable dv && dv.d_busy = None
              then d2 := Some i)
            devs;
          !d2
        end
      in
      (match hedge_to with
      | Some d2 ->
        (* The stalled primary keeps running (its watchdog is spent);
           the twin races it, first result wins. Disarming the watchdog
           moves the primary's event key {e later} — the general-update
           case of the heap, not a decrease-key. *)
        devs.(d).d_busy <- Some { b with b_timeout = infinity; b_hedged = true };
        refresh_device d;
        launch_batch ~hedge_from:(Some d) d2 a b.b_reqs
      | None -> cancel_requeue d b));
    try_dispatch ()
  in
  let handle_device d =
    let dev = devs.(d) in
    match dev.d_busy with
    | None -> assert false
    | Some b -> (
      let t_lost = match b.b_lost with Some l -> l | None -> infinity in
      if t_lost <= b.b_timeout && t_lost <= b.b_done then begin
        (* The device died mid-batch: decommission it and re-queue the
           in-flight requests at the front of their queue (the PR-3
           failover discipline — no work is lost, order is kept), unless
           a hedged twin still carries a copy. *)
        now := t_lost;
        Obs.set_clock (!now /. 60.0);
        dev.d_alive <- false;
        dev.d_busy <- None;
        decr n_alive;
        if dev.d_state <> Quarantined then decr n_routable;
        refresh_device d;
        incr devices_lost;
        clocked (Telemetry.Core_lost { core = d; partition = -1 });
        (match twin_of d b.b_group with
        | Some _ -> ()  (* the surviving copy delivers *)
        | None ->
          let a = b.b_app in
          let n = List.length b.b_reqs in
          requeued := !requeued + n;
          (* De-count the lost dispatch so fair share tracks completed
             work, not work burned on a dead device. *)
          served.(a) <- served.(a) - n;
          dq_push_front queues.(a) b.b_reqs;
          total_queued := !total_queued + n;
          List.iter
            (fun r ->
              clocked
                (Telemetry.Serve_enqueue
                   { app = apps.(a).ap_name;
                     request = r.rq_id;
                     queue_len = dq_len queues.(a) }))
            b.b_reqs);
        if alive_devices () = 0 then drain_to_jvm () else try_dispatch ()
      end
      else if b.b_timeout <= b.b_done then handle_timeout d b
      else begin
        now := b.b_done;
        Obs.set_clock (!now /. 60.0);
        dev.d_busy <- None;
        refresh_device d;
        (* First result wins: the loser of a hedged pair is cancelled
           the moment the winner completes. *)
        (if b.b_hedged then
           match twin_of d b.b_group with
           | Some d2 ->
             devs.(d2).d_busy <- None;
             refresh_device d2
           | None -> ());
        let payloads =
          Array.of_list (List.map (fun r -> r.rq_payload) b.b_reqs)
        in
        let tr = Blaze.map_accelerated mgr ~id:(uid b.b_app) payloads in
        List.iteri
          (fun i r -> complete ~accelerated:true r tr.Blaze.tr_values.(i))
          b.b_reqs;
        breaker_success d;
        try_dispatch ()
      end)
  in
  let handle_jvm () =
    (* The caller peeked this event at the heap top; nothing between the
       peek and here mutates the heap, so pop it now. *)
    let t, r, v =
      match Pheap.pop ev_heap with
      | Some (_, Ev_jvm e) -> e
      | _ -> assert false
    in
    now := t;
    Obs.set_clock (!now /. 60.0);
    complete ~accelerated:false r v
  in
  let handle_reopen d =
    let dev = devs.(d) in
    now := dev.d_reopen;
    Obs.set_clock (!now /. 60.0);
    dev.d_reopen <- infinity;
    set_bstate d (Half_open 0);
    try_dispatch ()
  in
  (* ---------- checkpoint rendering ---------- *)
  (* Pending JVM completions in (t, app, id) order — the heap's internal
     layout never reaches a snapshot. *)
  let jvm_entries () =
    List.sort jvm_order
      (Pheap.fold ev_heap ~init:[] ~f:(fun acc _ e ->
           match e with Ev_jvm entry -> entry :: acc | _ -> acc))
  in
  let snapshot_lines ~every ~meta () =
    let fstr = Json.fstr and quote = Json.quote in
    let header =
      Printf.sprintf
        "{\"ck\":\"fleet\",\"v\":1,\"policy\":%s,\"devices\":%d,\"device\":%s,\"apps\":%d,\"events\":%d,\"now\":%s,\"every\":%s}"
        (quote (policy_name opts.o_policy))
        opts.o_devices
        (quote opts.o_device.Device.name)
        n_apps !events (fstr !now) (fstr every)
    in
    let queue_lines =
      Array.to_list
        (Array.mapi
           (fun i q ->
             let ids =
               List.map
                 (fun r -> fstr (float_of_int r.rq_id))
                 (dq_to_list q)
             in
             Printf.sprintf
               "{\"ck\":\"queue\",\"app\":%d,\"served\":%d,\"ids\":[%s]}" i
               served.(i)
               (String.concat "," ids))
           queues)
    in
    let dev_lines =
      Array.to_list
        (Array.mapi
           (fun i dv ->
             let base =
               Printf.sprintf
                 "{\"ck\":\"dev\",\"i\":%d,\"alive\":%b,\"loaded\":%d,\"state\":%s,\"reopen\":%s"
                 i dv.d_alive
                 (match dv.d_loaded with Some a -> a | None -> -1)
                 (quote (bstate_detail dv.d_state))
                 (fstr dv.d_reopen)
             in
             match dv.d_busy with
             | None -> base ^ "}"
             | Some b ->
               base
               ^ Printf.sprintf
                   ",\"app\":%d,\"launched\":%s,\"done\":%s,\"timeout\":%s,\"lost\":%s,\"group\":%d,\"hedged\":%b,\"ids\":[%s]}"
                   b.b_app (fstr b.b_launched) (fstr b.b_done)
                   (fstr b.b_timeout)
                   (match b.b_lost with
                   | Some l -> fstr l
                   | None -> fstr infinity)
                   b.b_group b.b_hedged
                   (String.concat ","
                      (List.map
                         (fun r -> fstr (float_of_int r.rq_id))
                         b.b_reqs)))
           devs)
    in
    let counter_line =
      Printf.sprintf
        "{\"ck\":\"counters\",\"batches\":%d,\"reconfigs\":%d,\"fallbacks\":%d,\"requeued\":%d,\"lost\":%d,\"shed\":%d,\"timeouts\":%d,\"hedges\":%d,\"trips\":%d,\"dl_hit\":%d,\"dl_miss\":%d,\"groups\":%d}"
        !batches !reconfigs !fallbacks !requeued !devices_lost !shed_n
        !timeouts !hedges !breaker_trips !dl_hits !dl_misses !groups
    in
    let jvm_lines =
      List.map
        (fun (t, r, _) ->
          Printf.sprintf "{\"ck\":\"jvm\",\"t\":%s,\"app\":%d,\"id\":%d}"
            (fstr t) r.rq_app r.rq_id)
        (jvm_entries ())
    in
    let result_line =
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat ";"
                (List.rev_map
                   (fun r ->
                     Printf.sprintf "%d:%d:%s:%b" r.rs_app r.rs_id
                       (fstr r.rs_done) r.rs_accelerated)
                   !results)))
      in
      Printf.sprintf "{\"ck\":\"results\",\"count\":%d,\"digest\":%s}"
        (List.length !results) (quote digest)
    in
    let arr_line =
      Printf.sprintf "{\"ck\":\"arrivals\",\"left\":%d}"
        (List.length !arrivals)
    in
    Checkpoint.frame ~header ~meta
      (queue_lines @ dev_lines @ [ counter_line ] @ jvm_lines
      @ [ result_line; arr_line ])
  in
  let next_ck =
    ref (match checkpoint with Some c -> c.cks_every_s | None -> infinity)
  in
  let after_event () =
    (match validate with
    | Some (s, replay) when !events = s.fk_events ->
      Checkpoint.reached replay
        (snapshot_lines ~every:s.fk_every ~meta:s.fk_meta ())
    | _ -> ());
    match checkpoint with
    | Some c when !now >= !next_ck ->
      next_ck := !now +. c.cks_every_s;
      Checkpoint.write c.cks_path
        (snapshot_lines ~every:c.cks_every_s ~meta:c.cks_meta ());
      clocked
        (Telemetry.Checkpoint_written
           { path = c.cks_path; minutes = !now /. 60.0; evals = !events })
    | _ -> ()
  in
  (* The event loop. [ev_heap]'s total-order key is the tie chain on
     equal times: the head arrival, then the lowest-index device, then
     the (t, app, id)-least JVM completion. Its minimum runs unless the
     gated reopen probe is strictly earlier, so a probe loses every tie.
     Breaker reopen probes only matter while work can still reach a
     queue; gating them keeps quiesced runs from trailing half-open
     transitions after the last completion, and [expect_more] stands in
     for arrivals a federation driver has not injected yet. Reopens stay
     in their own heap because the gate is evaluated per step: a probe
     hidden by an empty system fires — possibly moving the clock
     backwards — once a requeue re-opens the gate. Device events are
     peeked, not popped: their handlers re-key or withdraw them through
     [refresh_device], the same path every other mutation takes. *)
  let refresh_arrival () =
    (match !arr_h with
    | Some h ->
      Pheap.remove ev_heap h;
      arr_h := None
    | None -> ());
    match !arrivals with
    | r :: _ ->
      arr_h := Some (Pheap.insert ev_heap (r.rq_arrival, 0, 0, 0) Ev_arrival)
    | [] -> ()
  in
  let gated_reopen () =
    if !total_queued > 0 || !arrivals <> [] || !expect_more then
      match Pheap.peek reopen_heap with
      | Some ((t, _), d) -> (t, d)
      | None -> (infinity, -1)
    else (infinity, -1)
  in
  let step () =
    let t_brk, bd = gated_reopen () in
    let top = Pheap.peek ev_heap in
    let t_ev =
      match top with Some ((t, _, _, _), _) -> t | None -> infinity
    in
    if t_ev = infinity && t_brk = infinity then false
    else begin
      (if t_ev <= t_brk then
         match top with
         | Some (_, Ev_arrival) -> (
           match !arrivals with
           | r :: rest ->
             arrivals := rest;
             refresh_arrival ();
             handle_arrival r
           | [] -> assert false)
         | Some (_, Ev_device d) -> handle_device d
         | Some (_, Ev_jvm _) -> handle_jvm ()
         | None -> assert false
       else handle_reopen bd);
      incr events;
      after_event ();
      true
    end
  in
  refresh_arrival ();
  Array.iteri (fun d _ -> refresh_device d) devs;
  (* The earliest pending event's time, under the same reopen gating
     the step applies — the key the federation files this sim under in
     its global heap. *)
  let next_pending () =
    let t_ev =
      match Pheap.peek ev_heap with
      | Some ((t, _, _, _), _) -> t
      | None -> infinity
    in
    Float.min t_ev (fst (gated_reopen ()))
  in
  let inject r =
    if !finished then fail "sim: inject after finish";
    if r.rq_app < 0 || r.rq_app >= n_apps then
      fail "request %d targets unknown app %d" r.rq_id r.rq_app;
    (match r.rq_deadline with
    | Some d when not (Float.is_finite d) ->
      fail "request %d: deadline must be finite" r.rq_id
    | _ -> ());
    arrivals := List.merge request_order [ r ] !arrivals;
    refresh_arrival ()
  in
  (* Autoscaling: release parks the highest-index idle device (so the
     low indices every tie-break prefers stay stable); lease brings the
     lowest-index parked device back. Both are silent state edits — no
     event, no telemetry — so a federation that never calls them leaves
     the simulation untouched. *)
  let release () =
    if !n_alive <= 1 then false
    else begin
      let cand = ref (-1) in
      Array.iteri
        (fun i dv -> if dv.d_alive && dv.d_busy = None then cand := i)
        devs;
      if !cand < 0 then false
      else begin
        let d = !cand in
        let dev = devs.(d) in
        dev.d_alive <- false;
        dev.d_released <- true;
        decr n_alive;
        if dev.d_state <> Quarantined then decr n_routable;
        refresh_device d;
        true
      end
    end
  in
  let lease () =
    let cand = ref (-1) in
    Array.iteri
      (fun i dv -> if !cand < 0 && dv.d_released then cand := i)
      devs;
    if !cand < 0 then false
    else begin
      let d = !cand in
      let dev = devs.(d) in
      dev.d_released <- false;
      dev.d_alive <- true;
      incr n_alive;
      if dev.d_state <> Quarantined then incr n_routable;
      refresh_device d;
      try_dispatch ();
      true
    end
  in
  let update_app i (a : app) =
    if i < 0 || i >= n_apps then fail "update_app: unknown app %d" i;
    if a.ap_name <> apps.(i).ap_name then
      fail "update_app: app %d is %s, not %s" i apps.(i).ap_name a.ap_name;
    check_apps [| a |];
    apps.(i) <- a;
    (* The per-(app, size) cost memo is stale for this tenant; the
       other tenants' entries stay warm. *)
    Hashtbl.filter_map_inplace
      (fun (ai, _) v -> if ai = i then None else Some v)
      svc_memo;
    (* Same uid, so [Blaze.register] swaps the accelerator in place —
       the Blaze-style live promotion; results stay bit-identical to the
       JVM oracle because designs only change timing, never values. *)
    Blaze.register mgr { a.ap_accel with Blaze.acc_id = uid i }
  in
  let drained = ref 0 in
  let drain () =
    (* [results] is newest-first; peeling the fresh prefix into an
       accumulator hands back the undrained tail oldest-first. *)
    let n = !res_count - !drained in
    drained := !res_count;
    let rec take k l acc =
      if k = 0 then acc
      else
        match l with
        | x :: tl -> take (k - 1) tl (x :: acc)
        | [] -> assert false
    in
    take n !results []
  in
  let finish () =
  if !finished then fail "sim: finish called twice";
  finished := true;
  (* ---------- report ---------- *)
  let results =
    List.sort (fun a b -> compare (a.rs_app, a.rs_id) (b.rs_app, b.rs_id))
      !results
  in
  let total = List.length results in
  let accel_total =
    List.length (List.filter (fun r -> r.rs_accelerated) results)
  in
  let weight_total =
    Array.fold_left (fun s a -> s +. a.ap_weight) 0.0 apps
  in
  (* One pass over the sorted results buckets them per app (prepend
     then reverse keeps each bucket in (app, id) order — the same list
     the old per-app re-filter produced, at O(results + apps) instead
     of O(apps x results)). *)
  let by_app = Array.make n_apps [] in
  List.iter (fun r -> by_app.(r.rs_app) <- r :: by_app.(r.rs_app)) results;
  let per_app =
    Array.to_list
      (Array.mapi
         (fun i a ->
           let mine = List.rev by_app.(i) in
           let acc = List.filter (fun r -> r.rs_accelerated) mine in
           let lat_ms =
             Array.of_list
               (List.map (fun r -> r.rs_latency *. 1000.0) mine)
           in
           let pct p = if Array.length lat_ms = 0 then 0.0 else p lat_ms in
           { ar_app = a.ap_name;
             ar_weight = a.ap_weight;
             ar_requests = List.length mine;
             ar_accelerated = List.length acc;
             ar_fallbacks = List.length mine - List.length acc;
             ar_p50_ms = pct Stats.p50;
             ar_p95_ms = pct Stats.p95;
             ar_p99_ms = pct Stats.p99;
             ar_mean_ms = Stats.mean lat_ms;
             ar_share =
               (if accel_total = 0 then 0.0
                else float_of_int (List.length acc)
                     /. float_of_int accel_total) })
         apps)
  in
  let fairness =
    if accel_total = 0 then 0.0
    else
      List.fold_left
        (fun m ar ->
          Float.max m (Float.abs (ar.ar_share -. (ar.ar_weight /. weight_total))))
        0.0 per_app
  in
  let makespan =
    List.fold_left (fun m r -> Float.max m r.rs_done) 0.0 results
  in
  Obs.set_clock (makespan /. 60.0);
  let report =
    { rp_policy = policy_name opts.o_policy;
      rp_devices = opts.o_devices;
      rp_device_name = opts.o_device.Device.name;
      rp_requests = total;
      rp_accelerated = accel_total;
      rp_fallbacks = !fallbacks;
      rp_batches = !batches;
      rp_reconfigs = !reconfigs;
      rp_requeued = !requeued;
      rp_devices_lost = !devices_lost;
      rp_shed = !shed_n;
      rp_timeouts = !timeouts;
      rp_hedges = !hedges;
      rp_breaker_trips = !breaker_trips;
      rp_deadline_hits = !dl_hits;
      rp_deadline_misses = !dl_misses;
      rp_makespan = makespan;
      rp_throughput =
        (if makespan > 0.0 then float_of_int total /. makespan else 0.0);
      rp_fairness = fairness;
      rp_apps = per_app }
  in
  { oc_report = report; oc_results = results }
  in
  { s_step = step;
    s_next = next_pending;
    s_now = (fun () -> !now);
    s_inject = inject;
    s_expect_more = (fun v -> expect_more := v);
    s_queue_depth = (fun () -> !total_queued);
    s_alive = alive_devices;
    s_routable = routable_count;
    s_loaded = (fun a -> a >= 0 && a < n_apps && has_loaded a);
    s_lease = lease;
    s_release = release;
    s_update_app = update_app;
    s_drain = drain;
    s_deadline_hits = (fun () -> !dl_hits);
    s_deadline_misses = (fun () -> !dl_misses);
    s_finish = finish }

let serve_impl ~opts ?trace ?faults ?checkpoint ?validate apps requests =
  Obs.span "fleet.serve" @@ fun () ->
  let sim =
    make_sim_impl ~opts ?trace ?faults ?checkpoint ?validate apps requests
  in
  while sim.s_step () do
    ()
  done;
  sim.s_finish ()

let make_sim ?(opts = default_opts) ?trace ?faults apps requests =
  make_sim_impl ~opts ?trace ?faults apps requests

let serve ?(opts = default_opts) ?trace ?faults ?checkpoint apps requests =
  serve_impl ~opts ?trace ?faults ?checkpoint apps requests

let resume ?(opts = default_opts) ?trace ?faults ?checkpoint
    ?(file = "checkpoint") ~snapshot apps requests =
  let replay =
    Checkpoint.replay ~file
      ~at:(Printf.sprintf "event %d" snapshot.fk_events)
      snapshot.fk_lines
  in
  let outcome =
    serve_impl ~opts ?trace ?faults ?checkpoint
      ~validate:(snapshot, replay) apps requests
  in
  match Checkpoint.verdict replay with
  | Ok () -> outcome
  | Error m -> raise (Fleet_error m)

(* ------------------------------------------------------------------ *)
(* Report rendering (fixed formats, so equal reports render to equal
   bytes) *)
(* ------------------------------------------------------------------ *)

let pp_report ppf r =
  let p fmt = Format.fprintf ppf fmt in
  p "== serving report ==@.";
  p "policy %s, %d device%s (%s), %d requests@." r.rp_policy r.rp_devices
    (if r.rp_devices = 1 then "" else "s")
    r.rp_device_name r.rp_requests;
  p "completed %d: %d accelerated in %d batches, %d jvm fallback@."
    (r.rp_accelerated + r.rp_fallbacks)
    r.rp_accelerated r.rp_batches r.rp_fallbacks;
  p "reconfigurations %d, devices lost %d, requests requeued %d@."
    r.rp_reconfigs r.rp_devices_lost r.rp_requeued;
  (* The SLO lines only appear when the control plane did something, so
     a run with it disabled renders byte-identically to the pre-SLO
     format. *)
  if r.rp_shed + r.rp_timeouts + r.rp_hedges + r.rp_breaker_trips > 0 then
    p "slo: %d shed, %d timeouts, %d hedges, %d breaker trips@." r.rp_shed
      r.rp_timeouts r.rp_hedges r.rp_breaker_trips;
  (let dl = r.rp_deadline_hits + r.rp_deadline_misses in
   if dl > 0 then
     p "deadlines: %d/%d met (%.1f%%)@." r.rp_deadline_hits dl
       (100.0 *. float_of_int r.rp_deadline_hits /. float_of_int dl));
  p "makespan %.6f s, throughput %.1f req/s@." r.rp_makespan r.rp_throughput;
  p "  %-10s %6s %8s %8s %8s %10s %10s %10s %7s@." "app" "weight" "reqs"
    "accel" "jvm" "p50 ms" "p95 ms" "p99 ms" "share";
  List.iter
    (fun a ->
      p "  %-10s %6.2f %8d %8d %8d %10.4f %10.4f %10.4f %7.3f@." a.ar_app
        a.ar_weight a.ar_requests a.ar_accelerated a.ar_fallbacks a.ar_p50_ms
        a.ar_p95_ms a.ar_p99_ms a.ar_share)
    r.rp_apps;
  p "fairness: max |share - weight| = %.4f@." r.rp_fairness

let report_to_string r = Format.asprintf "%a" pp_report r
