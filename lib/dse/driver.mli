module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry
module Fault = S2fa_fault.Fault

(** DSE drivers over simulated wall-clock time.

    Every HLS evaluation advances a virtual clock by its modeled duration
    ({!S2fa_hls.Estimate}'s eval-minutes). Eight virtual CPU cores run
    concurrently. One run core holds what every flow shares: prologue
    and epilogue, a pool of per-core clocks and alive flags (a heap
    yields the first core to free up), and the per-evaluation record
    (event, count, trace, global best, checkpoint stepper, core-loss
    draw). The flows are schedulers over it that differ only in how work
    reaches the cores: {!run_s2fa} hands static partitions to free cores
    first-come-first-serve, each running until it stops (Fig. 2);
    {!run_dynamic} samples every partition round-robin, then sends each
    free core to the best partition so far (DATuner, Section 4.3.1);
    {!run_vanilla} evaluates one batch per surviving core on a single
    clock that advances by the slowest member (footnote 3).

    Every driver accepts an optional shared {!Resultdb.t}. One database
    instance is threaded through the offline sampling pass and every
    partition tuner, so a design point measured once is never re-estimated:
    duplicates cost a lookup with zero virtual minutes (see {!Resultdb}'s
    clock contract). Quality values are unchanged by sharing — only
    duplicate work is skipped — and when a tuner has proposed its whole
    (sub)space the driver stops it instead of spinning on free hits. *)

(** One evaluated point in global simulated time. *)
type event = {
  ev_minutes : float;   (** Completion time. *)
  ev_perf : float;      (** Quality of this point (seconds; lower wins). *)
  ev_feasible : bool;
  ev_partition : int;   (** Originating partition (0 in vanilla). *)
  ev_technique : string;
      (** Name of the proposing search technique; [""] for seeds. *)
}

type run_result = {
  rr_events : event list;          (** Completion order. *)
  rr_best : (Space.cfg * float) option;
  rr_minutes : float;              (** When the whole DSE terminated. *)
  rr_evals : int;
  rr_cache : Resultdb.snapshot option;
      (** Result-database counter deltas of this run ([None] when the
          run was not given a database). *)
  rr_fault : Fault.stats option;
      (** Injector accounting: faults per class, virtual minutes lost,
          retries, quarantines ([None] when no injector was given). *)
}

val best_curve : run_result -> (float * float) list
(** Best-so-far quality over time: [(minutes, best_perf)] steps. *)

val best_at : run_result -> float -> float
(** Best quality found no later than the given minute ([infinity] when
    nothing feasible was found yet). *)

(** Options of the partitioned flows. The paper's constants are fixed:
    Eq. 2's entropy stop uses θ = 0.02 over 5 consecutive samples after
    at least 14 evaluations, and the partition tree is 3 deep. *)
type s2fa_opts = {
  so_cores : int;               (** default 8 *)
  so_time_limit : float;
      (** Minutes; default 240. A run given a limit that is not
          positive and finite raises [Invalid_argument "time limit must
          be positive and finite"] before its first evaluation, as
          {!run_vanilla} does for its [time_limit]. *)
  so_samples : int;             (** offline training samples; default 96 *)
  so_partition : bool;          (** ablation switch *)
  so_seed_mode : [ `Both | `Area_only | `None ];  (** ablation switch *)
  so_stop : [ `Entropy | `Trivial of int | `Time_only ]; (** ablation *)
}

val default_s2fa_opts : s2fa_opts

(** {1 Checkpointing}

    Periodic snapshots of the DSE state — virtual clocks, evaluation
    count, global best, the shared result database, one summary row per
    tuner — written every [ck_every] virtual minutes. The file follows
    the {!S2fa_telemetry.Checkpoint} discipline: a [ck=header] line,
    meta lines, [db] and [tuner] lines and an end marker, written
    atomically and rejected with ["FILE:LINE: reason"] when truncated
    or malformed.

    Recovery is {e replay-based}: tuner internals (technique cursors,
    bandit history) are closures and are not serialized. Instead,
    {!resume_from_checkpoint} re-runs the recorded configuration — the
    whole stack is deterministic — and when the re-run reaches the
    snapshot's minute (its trigger) checks the regenerated {!ck_lines}
    byte for byte against the stored ones. Crash at any checkpoint +
    resume therefore yields a final best bit-identical to an
    uninterrupted run ([test/test_fault.ml]). *)

(** One tuner's summary row in a snapshot. *)
type ck_tuner = {
  ct_partition : int;
  ct_evaluated : int;
  ct_best : float;     (** [infinity] when nothing feasible yet. *)
  ct_entropy : float;
}

(** A checkpoint snapshot. *)
type ck = {
  ck_flow : string;               (** ["s2fa"], ["dynamic"], ["vanilla"]. *)
  ck_every : float;               (** Snapshot interval, virtual minutes. *)
  ck_minutes : float;             (** Executing core's clock at the write. *)
  ck_evals : int;
  ck_best : (string * float) option;  (** Best [(cfg key, quality)]. *)
  ck_core_time : float array;
  ck_db : (string * Resultdb.eval_result) list;  (** Sorted by key. *)
  ck_tuners : ck_tuner list;      (** Sorted by partition. *)
  ck_meta : (string * string) list;
      (** Caller metadata (workload, seed, options) stored verbatim so
          a resume can reconstruct the run's configuration. *)
}

val ck_lines : ck -> string list
(** The snapshot's file lines, end marker included (through
    {!S2fa_telemetry.Checkpoint.frame}). Floats use
    {!Telemetry.Json.fstr}, so encoding is bit-exact. *)

val ck_of_checkpoint : S2fa_telemetry.Checkpoint.t -> (ck, string) result
(** Decode a checkpoint of kind ["header"]; a bad or missing field, an
    unknown line kind or an interval that is not positive and finite
    is [Error "FILE:LINE: reason"]. *)

val ck_of_lines : string list -> (ck, string) result
(** Inverse of {!ck_lines}; errors read ["checkpoint:LINE: reason"]. *)

val load_checkpoint : string -> (ck, string) result
(** Read and decode a snapshot file; errors read ["FILE:LINE: reason"]
    (["FILE: reason"] when it cannot be read). *)

(** Checkpointing options for a run. *)
type ck_opts = {
  ck_path : string option;   (** Snapshot file, replaced at each write. *)
  ck_every : float;
      (** Virtual minutes between snapshots. A run given an interval
          that is not positive and finite raises [Invalid_argument
          "checkpoint interval must be positive"] before its first
          evaluation. *)
  ck_meta : (string * string) list;  (** Stored in every snapshot. *)
  ck_hook : (ck -> unit) option;
      (** In-process observer, called with each snapshot (used by
          resume validation and tests). *)
}

val checkpoint_to : ?meta:(string * string) list -> every:float -> string
  -> ck_opts
(** [checkpoint_to ~every path]: write snapshots to [path] every
    [every] virtual minutes. *)

val run_s2fa :
  ?opts:s2fa_opts ->
  ?db:Resultdb.t ->
  ?trace:Telemetry.t ->
  ?faults:Fault.t ->
  ?checkpoint:ck_opts ->
  Dspace.t ->
  (Space.cfg -> Tuner.eval_result) ->
  Rng.t ->
  run_result
(** The full S2FA flow of Fig. 2: offline rule fitting, static
    partitioning, per-partition seeded tuners with entropy stopping,
    FCFS scheduling onto the virtual cores.

    [trace] records the run: [run_begin]/[run_end] bracket the flow,
    every evaluation emits [eval_start]/[eval_done] stamped with the
    executing core's virtual clock (offline rule-fitting probes carry
    [partition = -1]), partitions emit [partition_start]/[partition_stop]
    with their stop reason, and the tuners contribute [bandit_select],
    [seed_injected] and [entropy_sample]. Tracing never draws from the
    RNG: a traced run and an untraced run under the same seed produce
    bit-identical results.

    [faults] puts the {e search-phase} objective behind the injector's
    retry/backoff/quarantine policy (offline rule-fitting probes model
    ahead-of-time training runs and are exempt). An injected core loss
    decommissions the executing core and sends its partition — tuner
    state intact — back to the FCFS queue, where a surviving core picks
    it up (a [failover] trace event). Quarantined points come back as
    NaN-quality results the shared database refuses to memoize.

    [checkpoint] snapshots the run every [ck_every] virtual minutes. *)

val run_dynamic :
  ?opts:s2fa_opts ->
  ?db:Resultdb.t ->
  ?trace:Telemetry.t ->
  ?faults:Fault.t ->
  ?checkpoint:ck_opts ->
  Dspace.t ->
  (Space.cfg -> Tuner.eval_result) ->
  Rng.t ->
  run_result
(** The DATuner-style alternative the paper argues against (Section
    4.3.1): partitions start from {e random} seeds, every partition
    first runs 4 sampling evaluations (the "set-up time"
    static partitioning avoids — charged to the simulated clock), and
    cores are then reallocated greedily to the partitions showing the
    best quality so far. Used by the A5 ablation. *)

val run_vanilla :
  ?cores:int ->
  ?time_limit:float ->
  ?db:Resultdb.t ->
  ?trace:Telemetry.t ->
  ?faults:Fault.t ->
  ?checkpoint:ck_opts ->
  Dspace.t ->
  (Space.cfg -> Tuner.eval_result) ->
  Rng.t ->
  run_result
(** Vanilla OpenTuner: one tuner on the whole space starting from a
    random seed, 8 parallel evaluations per iteration, stopped only by
    the 4-hour limit. Core losses shrink the batch width (the run ends
    if every core dies); there is no partition failover to do. *)

val resume_from_checkpoint :
  ?opts:s2fa_opts ->
  ?db:Resultdb.t ->
  ?trace:Telemetry.t ->
  ?faults:Fault.t ->
  ?checkpoint:ck_opts ->
  ?file:string ->
  snapshot:ck ->
  Dspace.t ->
  (Space.cfg -> Tuner.eval_result) ->
  Rng.t ->
  (run_result, string) result
(** Replay-based recovery from a loaded snapshot. The caller must
    reconstruct the original run's configuration (workload, objective,
    options, seed, fault spec — typically from [snapshot.ck_meta]);
    this function re-runs the flow named by [ck_flow] with
    checkpointing at the snapshot's own interval. Its trigger is the
    snapshot's [ck_minutes]: the re-run's snapshot at that minute must
    reproduce {!ck_lines} of [snapshot]. [Error] carries the
    {!S2fa_telemetry.Checkpoint.verdict} — diverged (wrong seed,
    options or fault spec) or never reached — naming [file] (default
    ["checkpoint"]), the file the snapshot came from. [Ok] carries a
    result whose final best is bit-identical to an uninterrupted
    run's, by determinism of the whole stack. A [checkpoint] argument
    layers fresh snapshot writing on top (its interval is overridden by
    the snapshot's). *)
