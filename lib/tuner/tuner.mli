module Rng = S2fa_util.Rng

(** The steppable search driver: seeds, then bandit-allocated technique
    proposals, with the paper's stopping criteria.

    One [step] evaluates exactly one design point and reports its
    simulated HLS evaluation time, so callers (the vanilla-OpenTuner
    batch runner and the S2FA parallel partition scheduler) control
    simulated wall-clock themselves. *)

type eval_result = Resultdb.eval_result = {
  e_perf : float;     (** Quality, lower is better ([infinity] when the
                          design point is infeasible). *)
  e_feasible : bool;
  e_minutes : float;  (** Simulated duration of this evaluation. *)
}

type objective = Space.cfg -> eval_result

type outcome = {
  o_cfg : Space.cfg;
  o_perf : float;
  o_feasible : bool;
  o_minutes : float;
  o_improved : bool;  (** Strictly improved the best-so-far. *)
  o_technique : string;
      (** Name of the technique that proposed this point; [""] for seeds
          (they bypass the bandit). *)
  o_cache_hit : bool;
      (** The evaluation was served from the shared result database
          (always [false] without a [db]). *)
}

(** Stopping criteria (Section 4.3.3). *)
type stop_rule =
  | No_stop
  | Trivial_stop of int
      (** Stop after [k] consecutive non-improving evaluations. *)
  | Entropy_stop of { theta : float; consecutive : int; min_evals : int }
      (** Stop when the Shannon entropy of the per-factor uphill
          distribution changes by at most [theta] for [consecutive]
          iterations (Eq. 2), after at least [min_evals] evaluations. *)

type t

val create :
  ?seeds:Space.cfg list ->
  ?db:Resultdb.t ->
  ?trace:S2fa_telemetry.Telemetry.t ->
  Space.space ->
  objective ->
  Rng.t ->
  t
(** The tuner proposes through {!Technique.default_suite}, one bandit
    arm ({!Bandit}) per technique. Each seed joins the space's shape
    ({!Space.join}, which raises
    [Invalid_argument] for a seed that does not bind exactly the space's
    parameters).

    [db] is the shared result database of the surrounding exploration:
    when given, every evaluation is memoized through it, so a design
    point already measured anywhere (another technique, another
    partition's tuner, an offline sampling pass) is served from the
    database with {e zero} simulated minutes and its stored quality
    unchanged (see {!Resultdb}'s clock contract). Proposal
    de-duplication remains tuner-local: sharing a database never changes
    which points a tuner proposes, only what duplicates cost. Without
    [db] the tuner evaluates the objective directly (the seed
    behaviour).

    [trace] attaches a telemetry tracer: proposals emit [eval_start]
    (seeds additionally [seed_injected]), each recorded outcome emits an
    [entropy_sample], and the bandit emits [bandit_select] per
    selection. Tracing is read-only observation — it never draws from
    the RNG nor touches the objective, so traced and untraced tuners
    under the same seed walk identical trajectories. *)

val step : t -> outcome
(** Evaluate the next design point (seeds first). *)

val step_batch : t -> int -> outcome list
(** Propose [k] design points from the current state {e without}
    intermediate feedback (how OpenTuner farms candidates to parallel
    measurement slots — footnote 3 of the paper), evaluate them all,
    then apply feedback once. *)

val best : t -> (Space.cfg * float) option
(** Best feasible point so far. *)

val evaluated : t -> int

val exhausted : t -> bool
(** Every point of the space has been proposed at least once. With a
    shared result database further steps are free but informationless;
    drivers use this to terminate instead of spinning on 0-minute cache
    hits. *)

val entropy : t -> float
(** Current Shannon entropy of the uphill distribution. *)

val should_stop : t -> stop_rule -> bool

val technique_uses : t -> (string * int) list
(** How many proposals each technique produced (bandit allocation). *)

val history : t -> (int * float * float) list
(** Per evaluation: (index, perf, best-so-far), oldest first. *)
