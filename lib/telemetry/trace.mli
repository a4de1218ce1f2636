(** Trace consumers: everything here is reconstructed from the event
    stream alone — no access to the run that produced it — so a JSONL
    file written on one machine replays identically anywhere.

    The flagship guarantee: {!best_curve} applied to a trace of a DSE
    run equals [Driver.best_curve] of that run's [run_result] {e
    exactly} (bit-identical floats), proven by [test/test_telemetry.ml]. *)

type t
(** A loaded trace: events in sequence order. *)

val of_events : Telemetry.event list -> t
(** Sorts by sequence number. *)

val events : t -> Telemetry.event list

val parse_lines : string list -> (t, string) result
(** One JSONL line per event; the first bad line is rejected as
    ["trace:LINE: reason"]. *)

val load : string -> (t, string) result
(** Read a JSONL trace file; errors read ["FILE:LINE: reason"], or
    ["FILE: reason"] when the file cannot be read. *)

val best_curve : t -> (float * float) list
(** Best-so-far quality over time, [(minutes, quality)] steps,
    reconstructed from the search-phase [eval_done] events (offline
    samples, marked [partition = -1], are excluded — they never consume
    DSE wall-clock). Mirrors [Driver.best_curve] operation for
    operation. *)

(** One partition's occupancy of its virtual core. *)
type occ_row = {
  oc_partition : int;
  oc_core : int;
  oc_start : float;
  oc_stop : float;
  oc_evals : int;
  oc_reason : Telemetry.stop_reason;
}

(** Per-technique win attribution. *)
type attr_row = {
  at_technique : string;  (** ["seed"] groups injected seeds. *)
  at_proposals : int;
  at_wins : int;          (** Proposals that improved their tuner's best. *)
  at_best : float;        (** Best quality this technique reached. *)
}

(** Virtual minutes lost to one failure class. *)
type fault_row = {
  fl_class : string;  (** ["crash"], ["hang"], ["transient"], ["core_loss"]. *)
  fl_count : int;
  fl_lost : float;    (** Virtual minutes the class's attempts wasted. *)
}

(** Per-application serving activity, reconstructed from the
    [serve_*] events alone. Latency percentiles are nearest-rank
    ({!S2fa_util.Stats}) over the completion events' latencies, in
    milliseconds; 0 when the app completed nothing. *)
type serve_row = {
  sv_app : string;
  sv_enqueued : int;   (** Admissions (re-queues after device loss count
                           again). *)
  sv_completed : int;
  sv_fallbacks : int;  (** Requests served by the JVM baseline. *)
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
}

(** Everything {!replay} reconstructs. *)
type replay = {
  rp_flow : string;
  rp_cores : int;
  rp_limit : float;
  rp_minutes : float;          (** From [run_end]; 0 when absent. *)
  rp_evals : int;              (** Search-phase evaluations. *)
  rp_offline : int;            (** Offline sampling evaluations. *)
  rp_feasible : int;
  rp_cache_hits : int;
  rp_best : float;             (** [infinity] when nothing feasible. *)
  rp_curve : (float * float) list;
  rp_occupancy : occ_row list; (** In partition-start order. *)
  rp_attribution : attr_row list;  (** Sorted by wins, then proposals. *)
  rp_entropy : (int * (float * float) list) list;
      (** Per partition: [(minutes, entropy)] samples in time order. *)
  rp_faults : fault_row list;  (** Sorted by class name. *)
  rp_retries : int;
  rp_backoff_minutes : float;  (** Total exponential-backoff pause. *)
  rp_quarantined : int;        (** Points given up on after max retries. *)
  rp_cores_lost : int;
  rp_failovers : int;
  rp_checkpoints : int;
  rp_serve_batches : int;
  rp_serve_reconfigs : int;
  rp_serve_shed : int;           (** Deadline sheds to the JVM path. *)
  rp_serve_timeouts : int;       (** Watchdog cancellations. *)
  rp_serve_hedges : int;         (** Speculative duplicate dispatches. *)
  rp_serve_breaker_trips : int;  (** Transitions into quarantine. *)
  rp_serve_deadline_hits : int;
  rp_serve_deadline_misses : int;
  rp_serve_apps : serve_row list;  (** Sorted by app name; empty for
                                       non-serving traces. *)
  rp_fed_routed : int;       (** Federation routing decisions. *)
  rp_fed_leases : int;       (** Autoscaler device leases. *)
  rp_fed_releases : int;
  rp_fed_retunes : int;      (** Online DSE re-tuning runs launched. *)
  rp_fed_promotions : int;   (** Designs promoted into member fleets. *)
  rp_fed_rtt_minutes : float;   (** Total RTT penalty charged. *)
  rp_fed_tune_minutes : float;  (** Virtual DSE minutes billed by
                                    re-tuning runs. *)
  rp_eval_minutes : float;     (** Simulated minutes billed by search
                                   evaluations ([eval_done.eval_minutes],
                                   partitions only). *)
  rp_offline_minutes : float;  (** Same, offline sampling probes. *)
  rp_fault_minutes : float;    (** Virtual minutes lost to injected
                                   faults (sum over {!rp_faults}). *)
  rp_service_minutes : float;  (** Accelerator busy minutes
                                   ([serve_batch.service_minutes]). *)
  rp_reconfig_minutes : float; (** FPGA reconfiguration minutes. *)
}

val replay : t -> replay

val print_report : Format.formatter -> t -> unit
(** The [s2fa trace] rendering: summary, best-so-far curve, Gantt-style
    core occupancy, per-technique attribution, fault/resilience
    attribution (only when fault events are present), a serving section
    (only when serve events are present; its SLO and deadline lines
    only when those counters are non-zero, so pre-SLO traces render
    unchanged), entropy-stop timeline. Each
    section that bills virtual minutes ends with a [stage share:] line
    placing its minutes against the total the trace attributes. *)
