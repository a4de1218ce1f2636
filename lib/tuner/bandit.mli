module Rng = S2fa_util.Rng

(** Multi-armed bandit over search techniques, following OpenTuner's
    AUC-bandit meta-technique: each arm's exploitation score is the area
    under the curve of its recent "produced a new best" history (newer
    outcomes weigh more), plus a UCB-style exploration bonus. Effective
    arms get proportionally more design points (Section 4.2). *)

type t

val create :
  ?trace:S2fa_telemetry.Telemetry.t -> ?names:string list -> int -> t
(** [create n_arms]: scores over a sliding history of the last 50
    outcomes, with exploration coefficient 0.3. With [trace],
    every {!select} emits a [bandit_select] event carrying the chosen
    arm, its label from [names] (default ["armN"]) and the AUC scores of
    all arms at selection time; tracing never changes which arm wins. *)

val select : t -> Rng.t -> int
(** Pick an arm (ties broken at random). *)

val reward : t -> int -> bool -> unit
(** [reward t arm improved]: record whether the arm's proposal improved
    the global best. *)

val uses : t -> int array
(** How many times each arm was selected so far. *)

val auc_scores : t -> float array
(** Current exploitation scores (for introspection/tests). *)
