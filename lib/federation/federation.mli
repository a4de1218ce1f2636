(** Geo-sharded multi-cluster serving with an online DSE re-tuning loop.

    The paper's datacenter story, one level up from {!S2fa_fleet.Fleet}:
    several accelerator pools ("clusters") in different regions serve
    the same tenant set behind a routing tier, while two control loops
    run on the same virtual clock as the serving simulation —

    - an {b autoscaler} that leases pre-provisioned devices into (and
      releases them out of) each pool on queue-depth signals with
      hysteresis, and
    - an {b online DSE loop} that watches per-tenant federation-level
      p99 latency at fixed epochs and, when a tenant breaches its SLO,
      runs a bounded {!S2fa_core.S2fa.explore} re-tuning pass (memoized
      through a per-tenant {!S2fa_tuner.Resultdb}) whose winning design
      is promoted into {e every} member pool at the next epoch boundary.

    Determinism contract: the federation introduces no randomness of its
    own. Routing, autoscaling and promotion are pure functions of the
    time-ordered event sequence; re-tuning RNGs derive from
    [(fd_seed, tenant, epoch)] alone; and member pools run the
    {!S2fa_fleet.Fleet.sim} stepping interface in strict global time
    order. The same inputs therefore give a byte-identical report,
    telemetry stream and result list — and a single-cluster federation
    with zero RTT and both control loops disabled is byte-identical to
    plain [Fleet.serve] on the same inputs (report and JSONL trace;
    pinned by [test/test_federation.ml]). Designs only ever change
    timing, never values, so every result stays bit-identical to the
    JVM oracle regardless of which cluster served it or which design
    was live at the time. *)

exception Federation_error of string

(** {1 Routing} *)

type route_policy =
  | Weighted_rr     (** Smooth weighted round-robin over cluster
                        weights; lowest index on credit ties. *)
  | Least_queue     (** Shallowest total backlog; lowest index ties. *)
  | Cache_affinity  (** Prefer a pool whose devices already carry this
                        tenant's bitstream (the fleet [Affinity] policy
                        lifted across pools); least-queue among carriers,
                        falling back to least-queue overall. *)
  | Locality        (** Smallest origin-region RTT, then shallowest
                        queue, then lowest index. *)

val all_routes : route_policy list

val route_name : route_policy -> string
(** ["wrr"] | ["least-queue"] | ["cache-affinity"] | ["locality"]. *)

val route_of_name : string -> route_policy option

(** {1 Configuration} *)

(** One member pool. [cl_rtt_s.(region)] is the one-way transfer
    penalty (virtual seconds) between that origin region and this
    cluster; regions beyond the array are free. RTT is charged twice —
    on the way in (the request arrives at the pool [rtt] late) and on
    the way back (fed-level latency adds [rtt] after completion) — and
    never relaxes the request's absolute deadline. *)
type cluster = {
  cl_name : string;
  cl_devices : int;        (** Pool floor (>= 1); also the initial size. *)
  cl_weight : float;       (** Routing weight (> 0, finite). *)
  cl_rtt_s : float array;
  cl_faults : S2fa_fault.Fault.spec option;
      (** Per-cluster injector spec; the injector itself is derived
          from [(fd_seed, cluster index)], so device loss is
          correlated {e within} a cluster and independent across
          clusters. *)
}

val cluster :
  ?devices:int -> ?weight:float -> ?rtt_s:float array ->
  ?faults:S2fa_fault.Fault.spec -> string -> cluster
(** Defaults: 2 devices, weight 1, no RTT, no faults. *)

(** Queue-depth autoscaling with hysteresis: every [as_interval_s]
    virtual seconds, a pool whose backlog is at least [as_up_queue]
    leases one parked device (up to [as_max_devices]); a pool whose
    backlog is at most [as_down_queue] releases one idle device (down
    to its [cl_devices] floor). One action per pool per tick. *)
type autoscale = {
  as_interval_s : float;
  as_up_queue : int;
  as_down_queue : int;   (** Must be strictly below [as_up_queue]. *)
  as_max_devices : int;  (** Per-cluster ceiling (>= every floor). *)
}

val default_autoscale : autoscale
(** 5 s interval, lease at 8 queued, release at <= 1, ceiling 4. *)

(** The online DSE loop. Every [rt_epoch_s] virtual seconds the loop
    (1) applies promotions decided at the previous epoch to every
    member pool, (2) folds the epoch's completions into per-tenant
    fed-level latency windows (cumulative until that tenant re-tunes,
    so post-promotion samples measure the new design), and (3) for
    each re-tunable tenant with
    at least 20 samples whose window p99 exceeds [rt_p99_slo_ms], runs
    [S2fa.explore] under [rt_opts] at its default task count (once per
    tenant, memoized through a per-tenant result database) and
    schedules the winning design for promotion at the {e next} epoch. The DSE bill is virtual {e minutes} on the
    tuning clock, reported as [fr_tune_minutes] — it does not stall the
    serving clock, modeling re-tuning on offline capacity. *)
type retune = {
  rt_epoch_s : float;
  rt_p99_slo_ms : float;
  rt_opts : S2fa_dse.Driver.s2fa_opts;
}

val default_retune_opts : S2fa_dse.Driver.s2fa_opts
(** A bounded budget: 2 cores, 20 virtual minutes, 16 offline samples. *)

val retune :
  ?epoch_s:float -> ?opts:S2fa_dse.Driver.s2fa_opts -> float -> retune
(** [retune slo_ms]. Defaults: 10 s epochs, {!default_retune_opts}. *)

(** One served tenant: its fleet app plus (optionally) the compiled
    kernel the online DSE loop re-tunes. A tenant without a compiled
    kernel is never re-tuned. *)
type tenant = {
  ft_app : S2fa_fleet.Fleet.app;
  ft_compiled : S2fa_core.S2fa.compiled option;
}

val tenant : ?compiled:S2fa_core.S2fa.compiled -> S2fa_fleet.Fleet.app -> tenant

type opts = {
  fd_route : route_policy;
  fd_fleet : S2fa_fleet.Fleet.opts;  (** Per-pool serving options;
                                         [o_devices] is overridden by
                                         each cluster's size. *)
  fd_autoscale : autoscale option;   (** [None] disables autoscaling. *)
  fd_retune : retune option;         (** [None] disables the DSE loop. *)
  fd_seed : int;                     (** Root seed for fault injectors
                                         and re-tuning RNG streams. *)
}

val default_opts : opts
(** Weighted round-robin, {!S2fa_fleet.Fleet.default_opts}, both
    control loops off, seed 0. *)

(** {1 Reports} *)

type cluster_report = {
  cr_name : string;
  cr_routed : int;    (** Requests this pool was chosen for. *)
  cr_leases : int;
  cr_releases : int;
  cr_report : S2fa_fleet.Fleet.report;
}

(** Per-tenant federation-level latency (RTT included), nearest-rank
    percentiles in milliseconds via the mergeable-percentile path
    ({!S2fa_util.Stats.merge_sorted}). *)
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
  fr_tune_minutes : float;  (** Virtual DSE minutes billed by re-tunes. *)
  fr_makespan : float;      (** Last fed-level completion, seconds. *)
  fr_clusters : cluster_report list;  (** In cluster order. *)
  fr_tenants : tenant_report list;    (** In tenant order. *)
}

type outcome = {
  fo_report : report;
  fo_results : (int * S2fa_fleet.Fleet.result) list;
      (** [(cluster index, result)], sorted by (app, id): every request,
          exactly once, values bit-identical to the JVM oracle
          regardless of serving cluster. *)
}

(** {1 Serving} *)

val serve :
  ?opts:opts ->
  ?trace:S2fa_telemetry.Telemetry.t ->
  clusters:cluster list ->
  tenant list ->
  (int * S2fa_fleet.Fleet.request) list ->
  outcome
(** Serve a time-ordered stream of [(origin region, request)] pairs
    (e.g. {!S2fa_workloads.Traffic.regional_requests}) across the
    member pools until every request completes. With [?trace], member
    pools emit their usual serving events and the federation adds
    [fed_route] / [fed_autoscale] / [fed_retune] / [fed_promote] — but
    a {e trivial} federation (one cluster, zero RTT, both control loops
    off) emits no federation events at all, keeping its trace
    byte-identical to plain [Fleet.serve]. Raises {!Federation_error}
    on an invalid configuration (no clusters, no tenants, bad weights
    or RTTs, inverted hysteresis, a ceiling below a floor, a request
    with a negative region or unknown tenant). *)

val pp_report : Format.formatter -> report -> unit
(** Fixed-format rendering: equal reports produce equal bytes. The
    deadline, autoscale and online-DSE lines are omitted when their
    counters are zero. *)

val report_to_string : report -> string
