(** Bounded symbolic evaluator for the HLS C dialect.

    Executes a {!S2fa_hlsc.Csyntax.cprog} on fully symbolic scalar inputs,
    producing normalized terms for every output buffer cell. It walks the
    program {!S2fa_hlsc.Cscope.resolve} produces, the same resolution
    {!S2fa_hlsc.Cinterp} compiles: every variable is a slot of a per-call
    frame and every user call names its callee. Loops are unrolled up to
    a trip budget (trip counts recovered by {!S2fa_hlsc.Canalysis} gate
    execution early), data-dependent branches are merged with
    if-then-else terms instead of forking paths, and a hash-consing
    normalizer (exact associative/commutative regrouping for modular
    int/long [+]/[*], constant folding via {!S2fa_hlsc.Cinterp}'s own
    scalar semantics) decides term equality by node identity. Terms are
    interned in an open-addressing table keyed on the node itself
    (children compared physically, floats by bit pattern): each term
    stores its node's hash, which a probe compares before the node and
    the table re-slots by when it doubles. Each term also keeps its
    coverage fingerprint hashes once computed. Constant operands fold
    without building interpreter values unless both are constant, and an
    expression in a scalar position evaluates straight to its term.

    The headline entry point is {!equiv}: a checked equivalence theorem —
    up to the trip/step/term budgets — between a kernel and its
    Merlin-transformed version. [Proved] means every output cell (and the
    return value) normalizes to the identical term on both sides, so the
    two programs agree on {e all} inputs within budget. A mismatch is
    hunted down to a concrete counterexample that is confirmed by running
    both programs through {!S2fa_hlsc.Cinterp}; if no witness is found the
    verdict degrades to [Unknown] — the verifier never claims a refutation
    it cannot reproduce concretely.

    Float arithmetic is folded when concrete but never reassociated or
    commuted symbolically, so rewrites that reorder floating-point
    reductions are (correctly) not provable and fall through to the
    concrete refuter. *)

type budget = {
  bg_steps : int;  (** statements executed, across both programs *)
  bg_nodes : int;  (** distinct terms interned, across both programs *)
  bg_trip : int;   (** max iterations of any single loop *)
}

val default_budget : budget

type counterexample = {
  cx_args : (string * S2fa_hlsc.Cinterp.cvalue) list;
      (** concrete arguments (buffers included) feeding both programs *)
  cx_detail : string;  (** where and how the two runs disagreed *)
}

type stats = {
  pv_outputs : int;  (** output cells proved identical *)
  pv_paths : int;    (** distinct symbolic branch/access features seen *)
  pv_nodes : int;    (** terms interned *)
  pv_steps : int;    (** statements executed *)
}

type verdict =
  | Proved of stats
  | Refuted of counterexample  (** confirmed by {!S2fa_hlsc.Cinterp} *)
  | Unknown of string          (** budget hit or unsupported construct *)

val pp_verdict : Format.formatter -> verdict -> unit

val equiv :
  ?budget:budget ->
  ?bindings:(string * S2fa_hlsc.Cinterp.cvalue) list ->
  ?samples:int ->
  ?seed:int ->
  caps:(string * int) list ->
  S2fa_hlsc.Csyntax.cprog ->
  S2fa_hlsc.Csyntax.cprog ->
  string ->
  verdict
(** [equiv ~caps p1 p2 entry] proves or refutes that [entry] computes the
    same outputs in [p1] and [p2]. [caps] gives the element count of every
    pointer parameter (e.g. from [S2fa.compiled.c_buffer_elems]);
    [bindings] pins named scalar parameters to concrete values (the
    runtime task count [("N", VI k)] in flat kernels — loop bounds must
    fold to constants). [samples]/[seed] control the concrete
    counterexample search run on a symbolic mismatch. *)

val coverage :
  ?budget:budget ->
  ?bindings:(string * S2fa_hlsc.Cinterp.cvalue) list ->
  caps:(string * int) list ->
  S2fa_hlsc.Csyntax.cprog ->
  string ->
  (int list, string) result
(** Symbolic path features of one program: a sorted list of structural
    fingerprints, one per distinct data-dependent branch condition or
    symbolically-indexed array access encountered. Used as the fuzzer's
    coverage signal — a kernel is interesting when it contributes
    fingerprints no earlier kernel produced. Deterministic for a given
    program. [Error reason] when symbolic execution gives up. *)

val refute :
  ?samples:int ->
  ?seed:int ->
  ?bindings:(string * S2fa_hlsc.Cinterp.cvalue) list ->
  caps:(string * int) list ->
  S2fa_hlsc.Csyntax.cprog ->
  S2fa_hlsc.Csyntax.cprog ->
  string ->
  counterexample option
(** Purely concrete differential testing on random inputs (the same
    sampler {!equiv} uses to confirm mismatches): [Some cx] when a run
    disagreed, [None] when all samples agreed. No symbolic execution. *)
