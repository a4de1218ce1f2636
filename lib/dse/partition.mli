module Space = S2fa_tuner.Space
module Rng = S2fa_util.Rng

(** Static design-space partitioning via a regression decision tree
    (Section 4.3.1).

    Nodes split on a design factor and a condition (e.g. "parallel
    factor of the outer loop < 16"); leaves are partitions. Splits are
    chosen greedily to maximize information gain (Eq. 1) with variance
    as the impurity function (latency is a regressed value). The
    candidate rule sets follow the paper's two methodologies: factors of
    the task loop inserted for the RDD operator, and factors grouped by
    loop-hierarchy level. Partitions are disjoint and cover the space,
    so optimality is preserved.

    {!build} reads every sample's value of every parameter once, into
    a value table for the tree; a node holds its sample indices in
    sample order. Gains are computed in the summation order of
    {!S2fa_util.Stats.variance} over the left samples followed by the
    right ones, so the chosen splits do not depend on how the samples
    are stored. *)

type constr =
  | CLe of string * int       (** Integer parameter <= threshold. *)
  | CGt of string * int
  | CIn of string * string list  (** Enum parameter restricted. *)

type partition = {
  p_constrs : constr list;
  p_space : Space.space;  (** The narrowed sub-space. *)
}

val restrict : Space.space -> constr -> Space.space
(** Narrow one parameter's range; parameters collapsing to a single
    value remain (with that one value). The result shares the space's
    shape. *)

val project : partition -> Space.cfg -> Space.cfg
(** Clamp a configuration into a partition ({!Space.project}; used to
    place seeds). *)

val satisfies : Space.cfg -> constr -> bool
(** Does a configuration meet one constraint? (Missing parameters
    satisfy everything.) *)

val info_gain : float array -> float array -> float
(** [info_gain left right] per Eq. 1 with variance impurity. *)

(** A labelled sample of the design space used to fit the tree
    ("training data" in the paper's terms). *)
type sample = { s_cfg : Space.cfg; s_latency : float }

val build :
  ?depth:int ->
  rule_params:string list list ->
  Space.space ->
  sample list ->
  partition list
(** Fit a tree of the given [depth] (default 3, giving up to 8 leaves).
    The root split is restricted to one of the preferred rule sets
    ([rule_params]): each set is scored by the gain of its best split,
    and the set with the highest gain wins, the first one on ties. An
    empty rule set stands for every parameter, and so does the root
    when no set has a split with positive gain. Deeper splits may use
    any factor. At every node a later candidate split replaces the
    current best only with a strictly higher gain, and a split whose
    gain is not positive leaves the node a leaf. *)
