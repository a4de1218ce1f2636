(** Evaluator for the HLS C dialect.

    {!compile} turns a program into OCaml closures once: every variable
    resolves to a slot of a per-call frame under C99 block scoping, every
    user call to its compiled callee, and every statement and operator
    to a closure of its own. {!run} then executes the result as often as
    needed. This executes the "FPGA side" of the Blaze simulator, which
    compiles each kernel once per registration (timing comes from
    {!S2fa_hls}, not from here), and checks functional equivalence: the
    bytecode interpreter ([S2fa_jvm.Interp], the independent oracle) and
    this evaluator must agree on every kernel, before and after every
    Merlin transformation.

    Behaviour contract, pinned by [test/golden/cinterp_runs.txt]:
    - Operands run right first in binary operators (so [a\[100\] +
      a\[200\]] on a 4-element [a] reports index 200), an array before
      its index, an assigned value before its target, call arguments
      left to right; [&&], [||] and [?:] short-circuit.
    - Fuel is one unit per executed statement plus one per loop
      iteration; running out raises [C_error "fuel exhausted"].
    - Each call gets a fresh frame, so recursion works. A name that
      resolves to no declaration raises "unbound variable" only when the
      code reading or writing it runs. A user call whose argument count
      differs from the callee's parameters raises [Invalid_argument].
    - A declaration stores its initializer's value uncast; a
      declaration without one gets {!alloc} of its type. *)

type cvalue =
  | VI of int          (** int/char/bool *)
  | VL of int64
  | VF of float        (** float/double *)
  | VA of cvalue array (** array/buffer; mutated in place *)

exception C_error of string

val zero_of : Csyntax.cty -> cvalue

val alloc : Csyntax.cty -> cvalue
(** Allocate a local of the given type ([CArr] allocates recursively). *)

val equal_cvalue : cvalue -> cvalue -> bool

(** {2 Scalar semantics}

    The exact numeric behaviour of the interpreter, exposed so that the
    symbolic evaluator ({!S2fa_sym}) folds constants with byte-identical
    results. All of these raise {!C_error} on shape mismatches (arrays
    where scalars are expected, division by zero, ...). *)

val truthy : cvalue -> bool
val as_int : cvalue -> int
val as_float : cvalue -> float

val arith : Csyntax.cbinop -> cvalue -> cvalue -> cvalue
(** Arithmetic and bitwise operators, with the usual promotion order
    (float > long > int). Not comparisons or short-circuit logic. *)

val compare_cv : Csyntax.cbinop -> cvalue -> cvalue -> cvalue
(** Comparison operators; always returns [VI 0] or [VI 1]. *)

val cast : Csyntax.cty -> cvalue -> cvalue

val call_math : string -> cvalue list -> cvalue
(** The libm subset available to kernels (sqrt, exp, pow, fmin, ...). *)

type compiled
(** A program compiled for {!run}. It holds no state from one run to
    the next. *)

val compile : Csyntax.cprog -> compiled
(** Never fails: what cannot run (an unbound name, an unknown function,
    an invalid lvalue) compiles to code raising {!C_error} when
    reached. Where two functions share a name, the first one is used. *)

val run :
  ?fuel:int -> compiled -> string -> (string * cvalue) list -> cvalue option
(** [run c name args] executes function [name] with the named argument
    values and returns its result ([None] for a function that ends
    without returning a value). Buffers passed as [VA] are mutated in
    place, which is how kernels deliver their outputs. [fuel] bounds
    executed statements plus loop iterations (default 200 million).
    Raises {!C_error} on an unknown function, a missing parameter (the
    first in parameter order), a trap or exhausted fuel. *)

val run_func :
  ?fuel:int -> Csyntax.cprog -> string -> (string * cvalue) list -> cvalue option
(** [run_func prog] is [run (compile prog)]. *)
