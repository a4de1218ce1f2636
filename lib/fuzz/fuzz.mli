module Ast = S2fa_scala.Ast
module Rng = S2fa_util.Rng

(** Cross-stage differential fuzzing of the S2FA pipeline.

    A seeded generator produces random MiniScala accelerator kernels that
    are well-typed by construction and stay inside the supported subset
    of Section 3.3 (scalars, arrays, tuples, nested counted loops,
    bounded whiles, conditionals, [math.*] intrinsics and same-class
    helper calls). Each kernel is pushed through the whole pipeline and
    checked against four oracles:

    + the verifier accepts everything the compiler emits;
    + the decompiled C, run under {!S2fa_hlsc.Cinterp} through the Blaze
      serialization layer, computes the same outputs as the bytecode
      interpreter on random inputs;
    + that equivalence is preserved under random chains of legal Merlin
      transformations drawn from the kernel's identified design space
      (a {!S2fa_merlin.Transform.Transform_error} is a legality refusal,
      counted as a skipped chain, not a failure);
    + {!S2fa_hls.Estimate.report_ok} holds for the baseline and every
      transformed design.

    A [Decompile_error] is a {e rejection} — the sound boundary of the
    supported subset — and never a failure. Failing kernels are
    minimized by a greedy one-edit shrinker that preserves the failing
    oracle, and can be written to a corpus directory in a self-describing
    format that {!replay_file} re-executes. *)

type failure = {
  f_oracle : string;
      (** Which oracle failed: ["pipeline"], ["verify"],
          ["differential"], ["transform"], ["estimate"], ["c-transform"]
          or ["crash"]. *)
  f_detail : string;    (** Diagnostic, prefixed with the failing stage. *)
  f_source : string;    (** MiniScala (or, for c-transform, C) source. *)
  f_len : int;          (** Array length / capacity used for the run. *)
  f_input_seed : int;   (** Seed of the random input data. *)
}

type outcome =
  | Passed of int       (** All oracles held; [n] transform chains were
                            refused as illegal and skipped. *)
  | Rejected of string  (** Decompiler refused the kernel (sound subset
                            boundary). *)
  | Failed of failure

type stats = {
  st_total : int;          (** MiniScala kernels generated. *)
  st_passed : int;
  st_rejected : int;
  st_chain_skips : int;    (** Transform chains refused as illegal. *)
  st_c_total : int;        (** C-level transform cases generated. *)
  st_c_passed : int;
  st_c_skipped : int;
  st_cov_new : int;        (** Kernels that contributed a new symbolic
                               path feature (coverage mode only). *)
  st_cov_features : int;   (** Distinct symbolic path features seen
                               (coverage mode only, else 0). *)
  st_failures : failure list;  (** Minimized when shrinking is on. *)
}

val gen_kernel : Rng.t -> Ast.program * int
(** Generate a random well-typed accelerator kernel; returns the program
    and the array length [len] every array type in it uses (so that JVM
    array lengths and C buffer capacities agree). *)

val run_source :
  ?tasks:int -> ?chains:int -> len:int -> input_seed:int -> string ->
  outcome
(** Run one kernel (source text) through every oracle. [len] must match
    the array length the kernel was generated with; [input_seed] drives
    the random field/input data; [chains] (default 2) is the number of
    design-space configs {e and} of unroll/tile chains tried. *)

val shrink_failure : ?tasks:int -> failure -> failure
(** Greedy structural minimization: repeatedly applies one-edit
    simplifications (drop a statement, hoist a body, drop a helper,
    replace an expression by a subexpression, shrink a literal) while
    the same oracle keeps failing, within a bounded number of re-runs. *)

val compile_flat :
  len:int -> string ->
  (S2fa_hlsc.Csyntax.cprog * (string * int) list, string) result
(** Push one kernel (source text) through parse, typecheck, compile,
    decompile and flattening. Returns the flat C program together with
    the element count of every kernel buffer parameter (inputs, outputs,
    then fields) as reported by the interface layout; input/output
    counts are per task. [Error] carries the refusing stage's
    diagnostic. *)

val scale_caps : tasks:int -> (string * int) list -> (string * int) list
(** Turn per-task buffer element counts into whole-buffer capacities for
    a [tasks]-task run: input/output buffers scale by [tasks], field
    buffers (names prefixed [f_]) are shared and stay as-is. *)

val kernel_coverage : len:int -> string -> int list
(** Symbolic path features ({!S2fa_sym.Sym.coverage}) of one kernel's
    flat C program, run with 2 tasks under a small budget. [[]] when the
    kernel does not reach the symbolic evaluator (any stage refuses) or
    the evaluator gives up — such kernels are simply not interesting to
    the coverage signal. Deterministic. *)

val gen_c_kernel : Rng.t -> S2fa_hlsc.Csyntax.cprog
(** Generate a random C-level kernel of the shape the transform fuzzer
    uses: [kernel(N, in, out)] with nested counted loops, shadowing
    declarations and clamped buffer accesses, guaranteed to contain at
    least one transformable loop. *)

val c_cap : int
(** Element count of the [in] and [out] buffers of a {!gen_c_kernel}
    kernel; its buffer accesses are clamped into it. *)

val run_campaign :
  ?tasks:int -> ?shrink:bool -> ?coverage:bool -> seed:int -> count:int ->
  unit -> stats
(** Run [count] generated MiniScala kernels and [count] C-level
    transform cases, deterministically from [seed]. With
    [~coverage:true], kernels whose flat C contributes a new symbolic
    path feature join a mutation pool and later iterations mutate pool
    members (via the shrinker's one-edit rewrites) instead of always
    generating from scratch; a mutant failing the [pipeline] oracle is
    counted as rejected, since mutation may break the generator's
    trap-freedom invariants — cross-stage disagreements on mutants are
    still failures. *)

val distinct_failures : stats -> int
(** Number of distinct failure signatures (oracle plus normalized
    diagnostic — the same key the shrinker preserves). *)

type expectation = Expect_pass | Expect_reject | Expect_fail

val write_corpus_file : dir:string -> expect:string -> failure -> string
(** Write a self-describing reproducer ([expect] is ["pass"], ["reject"]
    or ["fail"]); returns the path. *)

val replay_file : string -> expectation * outcome
(** Re-run a corpus file written by {!write_corpus_file} (first line
    [// s2fa-fuzz expect=... len=... input-seed=... oracle=...]). *)

val ocaml_repro : name:string -> failure -> string
(** An alcotest-style OCaml snippet reproducing the failure, for pasting
    into the regression suite. *)

val pp_stats : Format.formatter -> stats -> unit
