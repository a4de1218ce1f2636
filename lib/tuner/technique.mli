module Rng = S2fa_util.Rng

(** Search techniques, mirroring the set the paper assembles inside
    OpenTuner: uniform greedy mutation, a differential-evolution genetic
    algorithm, particle swarm optimization, and simulated annealing. Each
    technique proposes candidate configurations and learns from the
    measured quality (lower is better). *)

type t = {
  name : string;
  propose : best:(Space.cfg * float) option -> Rng.t -> Space.cfg;
  feedback : Space.cfg -> float -> unit;
      (** Called once per evaluated proposal with its quality. *)
}

val default_suite : Space.space -> Rng.t -> t list
(** The four techniques, in this order: uniform greedy mutation,
    differential evolution (population 6), particle swarm (6 particles)
    and simulated annealing (initial temperature 1, multiplied by 0.96 at
    each feedback). The last three draw their initial points from their own
    split of the RNG. *)
