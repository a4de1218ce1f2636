(** Basic statistics used across the DSE layer: sample moments, variance
    impurity for the partitioning decision tree (Eq. 1 of the paper), and
    Shannon entropy for the early-stopping criterion (Eq. 2). *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val variance : float array -> float
(** Population variance (the paper's impurity measure for regression
    partitions); 0 on arrays shorter than 2. *)

val variance_sub : float array -> int -> int -> float
(** [variance_sub xs pos len] is [variance (Array.sub xs pos len)], bit
    for bit: both passes sum the range left to right, as {!variance}
    sums a whole array. Raises [Invalid_argument] when the range is not
    within [xs]. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val min_max : float array -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on empty. *)

val median : float array -> float
(** Median (average of the two middle elements for even lengths);
    0 on an empty array; NaN if any element is NaN. Sorted with
    [Float.compare], so the result never depends on NaN's arbitrary
    rank under polymorphic compare. Does not mutate its argument. *)

val shannon_entropy : float array -> float
(** [shannon_entropy p] is [-sum p_i * log p_i] over the strictly positive
    entries, in nats. The input need not be normalized: it is normalized to
    a probability distribution first. Returns 0 if all mass is zero. *)

val normalize : float array -> float array
(** Scale a non-negative array so it sums to 1; an all-zero array maps to
    the uniform distribution. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], nearest-rank method
    ([p = 0] is the minimum, [p = 100] the maximum). NaN if any element
    is NaN. Raises [Invalid_argument] on empty input or a NaN rank. *)

val p50 : float array -> float
val p95 : float array -> float
val p99 : float array -> float
(** [percentile] at ranks 50/95/99 — the serving-layer latency
    summaries. Nearest-rank, so the result is always an element of the
    input (never interpolated); with tied values the tied element itself
    is returned, and an all-equal array has every percentile equal to
    that value. NaN-propagating and [Invalid_argument] on empty input,
    exactly as {!percentile}. *)

val sorted : float array -> float array
(** A copy sorted with [Float.compare] (the total order every order
    statistic here uses). Does not mutate its argument. *)

val merge_sorted : float array list -> float array
(** Exact k-way merge of arrays already sorted by [Float.compare] (as
    {!sorted} returns them). [merge_sorted parts] equals
    [sorted (Array.concat parts)] element for element — the federation
    layer merges per-cluster latency samples once instead of re-sorting
    their concatenation, and [test/test_util.ml] proves the identity on
    random partitions. The inputs are not mutated. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} on an array already sorted by [Float.compare]: skips
    the copy-and-sort, same nearest-rank result, same NaN propagation,
    same [Invalid_argument] on empty input or a NaN rank. *)

val geometric_mean : float array -> float
(** Geometric mean of strictly positive values; 0 on empty input. *)
