(** Static analysis of kernel functions: loop-nest structure, trip counts,
    per-iteration operation counts, memory-access maps and loop-carried
    dependences.

    This plays the role of the paper's ROSE + polyhedral front end: it
    feeds both the design-space identification (Table 1) and the HLS
    estimator's scheduling model. *)

(** Operation counts of one loop body, excluding nested loops. *)
type op_counts = {
  int_add : int;
  int_mul : int;
  int_div : int;
  fp_add : int;
  fp_mul : int;
  fp_div : int;
  math_calls : (string * int) list;  (** intrinsic name -> count *)
  mem_reads : (string * int) list;   (** buffer/array name -> accesses *)
  mem_writes : (string * int) list;
  compares : int;
  other : int;
}

val no_ops : op_counts

val total_ops : op_counts -> int

(** Why a loop iteration depends on a previous one. *)
type dependence =
  | NoDep
  | ScalarRec of string * int
      (** Accumulation into a scalar; int = latency-relevant op class
          encoded as the number of chained floating ops. *)
  | ArrayRec of string
      (** Read-after-write on the same array at loop-varying indices. *)

type loop_info = {
  li_loop : Csyntax.loop;
  li_depth : int;            (** 0 for outermost. *)
  li_ancestors : int list;   (** Enclosing loop ids, outermost first. *)
  li_children : int list;    (** Direct sub-loop ids. *)
  li_trip : int option;      (** Constant trip count if derivable. *)
  li_ops : op_counts;        (** Direct body, nested loops excluded. *)
  li_dep : dependence;
  li_has_if : bool;          (** Body contains conditional control flow. *)
}

type summary = {
  loops : loop_info list;          (** Pre-order. *)
  buffers : (string * Csyntax.cty * int option) list;
      (** Interface buffers of the function: name, type, declared
          bit-width. *)
  locals_bytes : int;              (** Bytes of local array storage. *)
  top_ops : op_counts;             (** Ops outside any loop. *)
  local_arrays : (string * Csyntax.cty * int) list;
      (** Local array declarations anywhere in the body:
          name, element type, element count. *)
}

(** Affine form of an index expression: [sum coeff_i * var_i + const]
    (the polyhedral-lite representation the dependence test works on). *)
type affine = { aff_terms : (string * int) list; aff_const : int }

val affine_of : Csyntax.cexpr -> affine option
(** [Some] when the expression is affine in its variables with integer
    coefficients; multiplication is allowed only against constants. *)

val affine_equal : affine -> affine -> bool

val affine_diff : affine -> affine -> affine
(** [affine_diff a b] is [a - b], with terms cancelled. *)

val analyze : Csyntax.cfunc -> summary
(** One walk of the function that resolves names under the block
    scoping of {!Cscope}:
    - every use takes the type of its innermost declaration (a
      [for (int v ...)] counter is one), and counts as floating point
      when that is [float], [double], or a one-dimensional array or
      buffer of them;
    - a loop's dependence scan counts a name as declared in the loop
      only inside the block that declares it;
    - a nested loop's bounds count as reads of every enclosing loop,
      since each iteration of that loop evaluates them. *)

val trip_count : Csyntax.loop -> int option
(** The loop's constant trip count, as {!analyze} records it in
    [li_trip]: [Some] when both bounds fold to constants and the step
    is positive. *)

val find_loop : summary -> int -> loop_info option

val loop_ids : summary -> int list

val trip_or : int -> loop_info -> int
(** Trip count with a default for unknown (runtime) bounds. *)
