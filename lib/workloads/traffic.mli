(** Seeded open-loop traffic for the serving simulator.

    Turns a list of evaluation workloads into a multi-tenant serving
    scenario: each tenant gets a Poisson arrival process and per-request
    payloads drawn from {e private} SplitMix64 streams derived from
    [(seed, tenant index)] alone. A given seed therefore yields a
    byte-reproducible request schedule, and changing one tenant's rate
    (or dropping a tenant entirely) never perturbs another tenant's
    arrivals or payloads. *)

type tenant = {
  tn_workload : Workloads.t;
  tn_rate : float;       (** Mean arrivals per virtual second. *)
  tn_weight : float;     (** Fair-share weight. *)
  tn_batch : int;        (** Max requests per accelerator invocation. *)
  tn_queue_cap : int;    (** Admission bound before JVM overflow. *)
}

val tenant :
  ?rate:float -> ?weight:float -> ?batch:int -> ?queue_cap:int ->
  Workloads.t -> tenant
(** Defaults: rate 100 req/s, weight 1, batch 16, queue capacity 64.
    Raises [Invalid_argument] on a rate that is not positive and
    finite. *)

val requests :
  seed:int -> horizon:float -> tenant list -> S2fa_fleet.Fleet.request list
(** Open-loop arrivals over [\[0, horizon)] virtual seconds, merged
    across tenants and sorted by (arrival, app, id). Deterministic in
    [(seed, horizon, tenants)]. Raises [Invalid_argument] on a horizon
    that is not positive and finite. *)

(** {1 Multi-region traffic}

    The federation's ingress: every (region, tenant) pair owns private
    SplitMix64 streams derived from [(seed, region index, tenant
    index)] alone, so adding or removing one region never perturbs
    another region's schedule (qcheck-proved in [test/test_federation.ml]),
    exactly as tenants are independent within a region. *)

type region = {
  rg_name : string;
  rg_scale : float;  (** Regional rate multiplier (> 0): each tenant
                         arrives at [tn_rate *. rg_scale] in this
                         region — skewed regional traffic. *)
}

val region : ?scale:float -> string -> region
(** Default scale 1. Raises [Invalid_argument] on a scale that is not
    positive and finite. *)

val region_id_shift : int
(** Regional request ids are [(region lsl region_id_shift) lor k] with
    [k] the per-stream counter, keeping (app, id) unique across the
    federation while remaining decodable. *)

val max_regions : int
(** 8 192: with more regions, ids would reach 2{^53}, past the integers
    a trace's JSON reader holds exactly. *)

val regional_requests :
  seed:int ->
  horizon:float ->
  region list ->
  tenant list ->
  (int * S2fa_fleet.Fleet.request) list
(** Open-loop arrivals over [\[0, horizon)] for every (region, tenant)
    pair, tagged with the origin region index and merged into one
    stream sorted by (arrival, app, id). Deterministic in
    [(seed, horizon, regions, tenants)]. Raises [Invalid_argument] on a
    horizon that is not positive and finite, an empty region list, or
    more than {!max_regions} regions. *)

val apps : seed:int -> tenant list -> S2fa_fleet.Fleet.app array
(** Compile each tenant's workload, apply the structured seed design
    ({!S2fa_dse.Seed.structured_seed}), draw its broadcast fields from
    the tenant's private field stream, and package everything as fleet
    apps (index-aligned with the tenant list and with {!requests}'s
    [rq_app]). The compiles emit no trace events; a profiler sees them
    as [core.compile] spans. *)
