(** A multi-tenant accelerator-serving cluster, simulated.

    The paper's deployment story ends with the S2FA-generated kernel
    running {e behind Blaze} in a datacenter: many JVM applications
    share a small pool of FPGAs, the Blaze node manager batches their
    requests into accelerator invocations, and anything the pool cannot
    take falls back to the plain JVM path. This module reproduces that
    serving layer as a deterministic discrete-event simulation on the
    repo's virtual clock:

    - {b devices} carry per-device bitstream state; swapping tenants
      pays the device's {!S2fa_hls.Device.t.reconfig_minutes}, and
      every batch pays a PCIe/DMA transfer charge computed from
      {!S2fa_blaze.Serde.bytes_of_iface} plus the HLS-estimated compute
      time, read from the registration's memo
      ({!S2fa_blaze.Blaze.report});
    - {b admission} is a bounded per-tenant FIFO; overflow (or a dead
      pool) degrades gracefully to the JVM baseline
      ({!S2fa_blaze.Blaze.map_jvm}) so {e no request is ever dropped}
      and every result is bit-identical either way;
    - {b scheduling} is pluggable: four policies behind one signature,
      all tie-broken by app index so no policy's choice depends on
      unordered-structure iteration;
    - {b faults}: an optional {!S2fa_fault.Fault} injector may kill a
      device mid-batch ([serve_loss]) or stall an invocation far past
      its estimate ([serve_hang]); in-flight requests re-queue at the
      {e front} of their queue (the PR-3 failover discipline) and the
      run completes on the surviving pool — or on the JVM if none
      survives;
    - {b SLO control plane} ({!slo}): deadline-aware admission sheds
      requests that cannot meet their deadline straight to the JVM
      path; a per-invocation watchdog cancels (or hedges) hung batches;
      per-device circuit breakers quarantine flapping devices and
      readmit them through half-open probes; and mid-serve
      {!type:snapshot} checkpoints support replay-validated {!resume}.
      Every feature is off by default and, when off, the run is
      byte-identical to the pre-SLO simulator.

    Determinism contract: [serve] does not create randomness. All
    stochastic inputs (arrival times, payloads, fault schedule) come in
    pre-drawn or via the injector's private stream, so the same inputs
    give a byte-identical report, telemetry stream, and result list —
    independent of policy internals or device count
    ([test/test_fleet.ml]). Hedged first-result-wins races inherit the
    event loop's fixed tie-break (lowest device index on equal times),
    so they replay exactly too.

    The event loop keeps every future event in indexed binary min-heaps
    ({!S2fa_util.Pheap}): O(log pool) per event and O(ready) dispatch.
    Its keys form a total order that encodes the tie-break chain —
    arrival, then lowest-index device, then the earliest JVM completion
    by (app, id) — so simultaneous events replay exactly. Reports,
    telemetry, checkpoints and resumes across every policy and SLO
    configuration are pinned by [test/golden/fleet_runs.txt], and the
    tie chain by [test/golden/serve_pr9_ties.*]. *)

exception Fleet_error of string

(** {1 Tenants and requests} *)

(** One served application (tenant): a registered accelerator plus the
    JVM-fallback ingredients and admission parameters. *)
type app = {
  ap_name : string;
  ap_accel : S2fa_blaze.Blaze.accel;
  ap_cls : S2fa_jvm.Insn.cls;       (** For the JVM fallback path. *)
  ap_fields : (string * S2fa_jvm.Interp.value) list;
  ap_weight : float;                (** Fair-share weight (> 0, finite). *)
  ap_batch : int;                   (** Max requests per invocation. *)
  ap_queue_cap : int;               (** Bound before overflow-to-JVM. *)
}

(** One request: a single input record for [rq_app], arriving at
    [rq_arrival] virtual {e seconds}. [rq_deadline] is an optional
    absolute completion deadline (virtual seconds, finite); requests
    the pool cannot finish by it are shed to the JVM path at admission
    or dispatch — they still complete, with a bit-identical result. *)
type request = {
  rq_app : int;
  rq_id : int;
  rq_arrival : float;
  rq_deadline : float option;
  rq_payload : S2fa_jvm.Interp.value;
}

(** {1 Scheduling policies} *)

type policy =
  | Fcfs      (** Oldest head-of-queue arrival first. *)
  | Sjf       (** Smallest estimated service time (including any
                  reconfiguration this device would pay) first. *)
  | Affinity  (** Keep serving the bitstream already loaded on the
                  device while it has work; otherwise FCFS. *)
  | Fair      (** Weighted fair share: smallest
                  dispatched-work / weight first. *)

val all_policies : policy list

val policy_name : policy -> string
(** ["fcfs"] | ["sjf"] | ["affinity"] | ["fair"]. *)

val policy_of_name : string -> policy option

(** {1 Cluster configuration} *)

(** Per-device circuit breaker: [bk_failures] consecutive watchdog
    timeouts move a device healthy → probation → quarantined; after
    [bk_cooldown_s] virtual seconds it goes half-open, and
    [bk_probes] consecutive successful batches readmit it. Any failure
    while half-open re-quarantines immediately. *)
type breaker_cfg = {
  bk_failures : int;      (** Consecutive failures before quarantine
                              (>= 1). *)
  bk_cooldown_s : float;  (** Quarantine duration before the half-open
                              probe (> 0, finite). *)
  bk_probes : int;        (** Successes needed to close again (>= 1). *)
}

val default_breaker : breaker_cfg
(** 3 failures, 5 s cooldown, 2 probes. *)

(** The SLO control plane. Every field's default disables it, and a
    disabled control plane is byte-identical to the pre-SLO simulator
    (report, telemetry, results). *)
type slo = {
  sl_hang_factor : float;
      (** Watchdog: cancel a batch after [sl_hang_factor] times its
          estimated service time (must be > 1; [infinity] disables).
          Only a batch stalled by [Fault.serve_hang] can exceed its
          estimate, so the watchdog never fires on healthy runs. *)
  sl_hedge : bool;
      (** On watchdog timeout, leave the stalled batch running and
          duplicate it onto the lowest-index idle device; first result
          wins and the loser is cancelled. Without an idle device the
          batch is cancelled and re-queued at the front instead. *)
  sl_breaker : breaker_cfg option;  (** [None] disables breakers. *)
}

val no_slo : slo
(** No watchdog, no hedging, no breakers. *)

(** Every device of the pool is the F1 VU9P ({!S2fa_hls.Device.vu9p}),
    behind an 8 GB/s PCIe link, and every invocation pays a fixed 0.5 ms
    overhead: the paper's Blaze deployment, so these are not options. *)
type opts = {
  o_devices : int;            (** Pool size (>= 1). *)
  o_policy : policy;
  o_slo : slo;
}

val default_opts : opts
(** 2 devices, FCFS, {!no_slo}. *)

val check_opts : opts -> unit
(** Raises {!Fleet_error} on options every serve refuses before it
    starts: fewer than one device, a hang factor not above 1, or a bad
    breaker setting. *)

val with_deadline : float -> request list -> request list
(** [with_deadline slo_seconds reqs] stamps every request with the
    absolute deadline [rq_arrival +. slo_seconds] (the CLI's [--slo-ms]
    plumbing). Raises {!Fleet_error} unless [slo_seconds] is positive
    and finite. *)

(** {1 Results and reports} *)

(** One completed request, with its completion time and latency in
    virtual seconds. *)
type result = {
  rs_app : int;
  rs_id : int;
  rs_value : S2fa_jvm.Interp.value;
  rs_done : float;
  rs_latency : float;
  rs_accelerated : bool;  (** [false] = JVM fallback. *)
}

(** Per-tenant serving statistics. Latencies are nearest-rank
    percentiles ({!S2fa_util.Stats}) in milliseconds, 0 when the app
    completed nothing. [ar_share] is this app's fraction of all {e
    accelerated} completions. *)
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
  rp_batches : int;       (** Accelerator invocations, hedges included. *)
  rp_reconfigs : int;
  rp_requeued : int;      (** In-flight requests recovered from lost
                              devices or cancelled batches. *)
  rp_devices_lost : int;
  rp_shed : int;          (** Requests shed to the JVM path by deadline
                              admission (enqueue or dispatch stage). *)
  rp_timeouts : int;      (** Watchdog firings. *)
  rp_hedges : int;        (** Duplicate dispatches launched. *)
  rp_breaker_trips : int; (** Transitions into quarantine. *)
  rp_deadline_hits : int;   (** Deadline-carrying requests that met it. *)
  rp_deadline_misses : int;
  rp_makespan : float;    (** Last completion time, virtual seconds. *)
  rp_throughput : float;  (** Requests per virtual second (0 when no
                              traffic). *)
  rp_fairness : float;    (** max over apps of
                              |accelerated share − normalized weight|. *)
  rp_apps : app_report list;  (** In app-index order. *)
}

type outcome = {
  oc_report : report;
  oc_results : result list;  (** Sorted by (app, id): every request,
                                 exactly once. *)
}

(** {1 Checkpoints} *)

(** Periodic mid-serve snapshots of fleet state — queues, per-device
    busy/breaker state, counters, pending JVM completions, a results
    digest, and the virtual clock — under the
    {!S2fa_telemetry.Checkpoint} discipline: a [ck=fleet] header, meta
    lines, body lines and an end marker, written atomically and rejected
    with ["FILE:LINE: reason"] when truncated or malformed. *)
type ck_spec = {
  cks_path : string;      (** Snapshot file, replaced in place. *)
  cks_every_s : float;    (** Virtual seconds between snapshots (> 0). *)
  cks_meta : (string * string) list;
      (** Opaque key/value pairs stored verbatim — the CLI records
          everything needed to rebuild the run ([s2fa resume]). *)
}

(** A parsed snapshot, as {!load_checkpoint} returns it. *)
type snapshot = {
  fk_events : int;    (** Simulator events processed: the resume trigger. *)
  fk_now : float;     (** Virtual seconds at the snapshot. *)
  fk_every : float;   (** The snapshot interval (> 0). *)
  fk_meta : (string * string) list;
  fk_lines : string list;  (** The raw snapshot lines, for validation. *)
}

val snapshot_of_checkpoint :
  S2fa_telemetry.Checkpoint.t -> (snapshot, string) Stdlib.result
(** Decode the header of a checkpoint of kind ["fleet"]; the body is
    left to {!resume}'s line-by-line check. *)

val load_checkpoint : string -> (snapshot, string) Stdlib.result
(** Read and check a snapshot file (end marker present, line count
    matches, a [ck=fleet] header first). Errors read
    ["FILE:LINE: reason"], or ["FILE: reason"] when the file cannot be
    read. *)

(** {1 Serving} *)

val serve :
  ?opts:opts ->
  ?trace:S2fa_telemetry.Telemetry.t ->
  ?faults:S2fa_fault.Fault.t ->
  ?checkpoint:ck_spec ->
  app array ->
  request list ->
  outcome
(** Run the pool over the request stream until every request completes
    (the run is open-loop: arrivals are fixed up front). With [?trace]
    the serving events ([serve_enq] / [serve_batch] / [serve_reconfig] /
    [serve_fallback] / [serve_done], plus [core_lost] on device death
    and the SLO kinds [serve_shed] / [serve_timeout] / [serve_hedge] /
    [serve_breaker] / [serve_deadline] when the control plane acts) are
    emitted with the virtual clock in minutes; tracing has zero effect
    on the simulation. [Serve_fallback] reasons: ["overflow"],
    ["no_devices"], or ["deadline"] (shed). With [?checkpoint] a
    snapshot is (re)written every [cks_every_s] virtual seconds,
    emitting a [checkpoint] event. Zero traffic is a strict no-op: an
    all-zero report and no events. Raises {!Fleet_error} on an
    invalid configuration (empty pool, non-positive or non-finite
    weight, non-positive batch, a non-finite deadline, a bad SLO or
    checkpoint spec, a request naming an unknown app). *)

val resume :
  ?opts:opts ->
  ?trace:S2fa_telemetry.Telemetry.t ->
  ?faults:S2fa_fault.Fault.t ->
  ?checkpoint:ck_spec ->
  ?file:string ->
  snapshot:snapshot ->
  app array ->
  request list ->
  outcome
(** Recover a serve from a snapshot: re-run the {e same} scenario
    deterministically from t = 0 and, at the snapshot's event count
    (its trigger), compare the regenerated state byte-for-byte with the
    stored lines — then continue to completion. The outcome is
    bit-identical to an uninterrupted run's (proved in
    [test/test_fleet.ml]). Raises {!Fleet_error} with the
    {!S2fa_telemetry.Checkpoint.verdict}, naming [file] (default
    ["checkpoint"]), when the replay diverged (the configuration or
    inputs differ from the checkpointed run's) or never reached the
    trigger. *)

(** {1 The stepping/mailbox interface}

    One pool's serve loop turned inside out, for drivers that interleave
    several pools on their own global event heap (the federation layer).
    The driver owns the loop: it calls [s_step] whenever this sim holds
    the earliest pending event ([s_next]), injects arrivals just in time
    ([s_inject]), and closes with [s_finish]. Running a sim to
    exhaustion and finishing it is byte-identical to {!serve} on the
    same inputs — report, telemetry, results (the goldens prove it; in
    fact {!serve} is implemented exactly that way). *)
type sim = {
  s_step : unit -> bool;
      (** Process the single earliest pending event; [false] when
          nothing is pending (more may become pending after
          [s_inject]). A profiler counts each processed event as
          [fleet.steps]. *)
  s_next : unit -> float;
      (** Virtual time of the earliest pending event ([infinity] when
          idle) — the key the driver files this sim under. *)
  s_now : unit -> float;  (** This pool's virtual clock, seconds. *)
  s_inject : request -> unit;
      (** Mail a request into the arrival stream (validated like
          {!serve}'s inputs). Must arrive no earlier than the sim's
          pending frontier; the driver's global time order guarantees
          that. *)
  s_expect_more : bool -> unit;
      (** While [true], the sim assumes more arrivals are coming even
          though its own list is empty — it keeps the breaker-reopen
          gate open exactly as a non-empty arrival list would. Plain
          {!serve} never sets it, so existing behavior is unchanged. *)
  s_queue_depth : unit -> int;  (** Total queued backlog. *)
  s_alive : unit -> int;
  s_routable : unit -> int;
  s_loaded : int -> bool;
      (** Whether some routable device already carries this app's
          bitstream — the federation's cache-affinity routing signal. *)
  s_lease : unit -> bool;
      (** Re-admit the lowest-index parked device ([false] if none is
          parked). Silent: no event, no telemetry. *)
  s_release : unit -> bool;
      (** Park the highest-index idle alive device ([false] if none is
          idle, or the pool would drop below one device). Parked
          devices are distinct from fault-lost ones and can be leased
          back; in-flight work is never interrupted. *)
  s_update_app : int -> app -> unit;
      (** Live design promotion: replace tenant [i]'s app (same name
          required) and re-register its accelerator under the same
          Blaze uid. Values stay bit-identical to the JVM oracle —
          designs only change timing. Raises {!Fleet_error} on an
          unknown index, a name mismatch, or an invalid app. *)
  s_drain : unit -> result list;
      (** Results completed since the previous drain, oldest first.
          Draining does not affect [s_finish]'s full result list. *)
  s_deadline_hits : unit -> int;
  s_deadline_misses : unit -> int;
  s_finish : unit -> outcome;
      (** Build the final report. Call once, after [s_step] returns
          [false] for good; raises {!Fleet_error} on a second call. *)
}

val make_sim :
  ?opts:opts ->
  ?trace:S2fa_telemetry.Telemetry.t ->
  ?faults:S2fa_fault.Fault.t ->
  app array ->
  request list ->
  sim
(** Create a sim over an initial (possibly empty) request list. Same
    validation and defaults as {!serve}; checkpointing is not available
    through the stepping interface. The app array is copied — a later
    [s_update_app] never mutates the caller's array. *)

(** {1 Internals exposed for testing} *)

(** The admission queue: a FIFO that also supports re-queueing a batch
    at the front (recovered in-flight work must not lose its place).
    Exposed only so [test/test_heap.ml] can model-check it against a
    plain list under arbitrary push / push-front / take / drain
    interleavings; the simulator is its real consumer. *)
module Dq : sig
  type 'a t

  val create : unit -> 'a t
  val len : 'a t -> int
  val push : 'a t -> 'a -> unit
  val push_front : 'a t -> 'a list -> unit
  val peek : 'a t -> 'a option
  val take : 'a t -> int -> 'a list
  val drain : 'a t -> 'a list
  val to_list : 'a t -> 'a list
end

val pp_report : Format.formatter -> report -> unit
(** Fixed-format rendering: equal reports produce equal bytes. The SLO
    and deadline lines are omitted when their counters are all zero, so
    a run with the control plane disabled renders byte-identically to
    the pre-SLO format. *)

val report_to_string : report -> string
