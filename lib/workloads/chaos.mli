(** Seeded chaos campaigns over the serving fleet.

    Each campaign seed deterministically derives one serving scenario —
    tenant mix, arrival rates, pool size, scheduling policy, fault
    rates (device loss, hangs), SLO configuration (deadline, watchdog,
    hedging, breakers) — runs it, and checks four invariants:

    + {b determinism}: an identical re-run reproduces the report and
      telemetry stream byte for byte;
    + {b no request lost}: every arrival completes exactly once,
      whatever combination of sheds, timeouts, hedges and device
      losses the run suffered;
    + {b JVM oracle}: every result is bit-identical to the
      un-accelerated baseline ({!S2fa_blaze.Blaze.map_jvm});
    + {b monotonicity}: the deadline hit-rate does not degrade when
      the pool grows by one device (checked fault-free, so the
      comparison is pure queueing and not confounded by differing
      fault-draw sequences).

    All randomness comes from SplitMix64 streams keyed on the seed, so
    a reported violation is a standalone repro recipe. The [s2fa chaos]
    subcommand and the CI chaos-smoke step are thin wrappers over
    {!run}. *)

(** Per-seed outcome summary. *)
type seed_report = {
  sr_seed : int;
  sr_requests : int;
  sr_shed : int;       (** Deadline sheds to the JVM path. *)
  sr_timeouts : int;   (** Watchdog cancellations. *)
  sr_hedges : int;     (** Speculative duplicate dispatches. *)
  sr_trips : int;      (** Circuit-breaker quarantines. *)
  sr_lost : int;       (** Devices lost to injected faults. *)
  sr_hit_rate : float; (** Deadline hit-rate; [nan] when the scenario
                           carried no deadlines. *)
  sr_digest : string;  (** MD5 (hex) of the main run's report followed
                           by its JSONL telemetry. *)
  sr_violations : string list;  (** Empty = all invariants held. *)
}

type campaign = {
  cg_reports : seed_report list;   (** In seed order. *)
  cg_violations : string list;     (** Flattened, prefixed with the
                                       offending seed. *)
}

val run_seed : int -> seed_report
(** Derive, run and check the scenario named by one seed. *)

val run : ?seeds:int -> ?seed0:int -> unit -> campaign
(** [run ~seeds ~seed0 ()] checks seeds [seed0 .. seed0+seeds-1]
    (defaults: 20 from 0). Raises [Invalid_argument] when [seeds] is
    not positive. *)

val pp_campaign : Format.formatter -> campaign -> unit
(** Fixed-format summary table plus the violation list (if any). *)

(** {1 Federation campaigns}

    The same discipline one level up: each seed derives a federated
    scenario — random cluster count (1–3), skewed regional arrival
    rates, per-cluster RTTs, autoscaling on or off, and device loss
    {e correlated within a single cluster} (at most one pool carries an
    injector) — and checks the first three invariants above
    (determinism, no request lost, JVM oracle) plus a fourth:

    + {b cluster invariance}: every request's result value is
      bit-identical whether it was served by the multi-cluster
      federation or by a single healthy pool — placement changes
      timing, never answers. *)

(** Per-seed federation outcome summary. *)
type fed_report = {
  fr_seed : int;
  fr_clusters : int;
  fr_requests : int;
  fr_leases : int;      (** Autoscaler device leases. *)
  fr_releases : int;
  fr_lost : int;        (** Devices lost to injected faults (all in one
                            cluster by construction). *)
  fr_digest : string;   (** MD5 (hex) of the main run's federation
                            report followed by its JSONL telemetry. *)
  fr_violations : string list;  (** Empty = all invariants held. *)
}

type fed_campaign = {
  fc_reports : fed_report list;    (** In seed order. *)
  fc_violations : string list;     (** Flattened, seed-prefixed. *)
}

val run_fed_seed : int -> fed_report
(** Derive, run and check the federated scenario named by one seed. *)

val run_fed : ?seeds:int -> ?seed0:int -> unit -> fed_campaign
(** [run_fed ~seeds ~seed0 ()] checks seeds [seed0 .. seed0+seeds-1]
    (defaults: 10 from 0). Raises [Invalid_argument] when [seeds] is
    not positive. *)

val pp_fed_campaign : Format.formatter -> fed_campaign -> unit
(** Fixed-format summary table plus the violation list (if any). *)
