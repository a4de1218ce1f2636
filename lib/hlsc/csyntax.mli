(** Abstract syntax of the HLS C dialect S2FA generates, with Merlin-style
    pragmas attached to loops and interface buffers.

    Loops are canonical counted loops ([for (int v = lo; v < hi; v += step)])
    carrying a unique [lid] that the design space and the transformation
    library use to address them. *)

type cty =
  | CBool
  | CChar
  | CInt
  | CLong
  | CFloat
  | CDouble
  | CArr of cty * int   (** Statically sized local array. *)
  | CPtr of cty         (** Interface buffer (kernel argument). *)

type cbinop =
  | CAdd | CSub | CMul | CDiv | CRem
  | CLt | CLe | CGt | CGe | CEq | CNe
  | CAnd | COr
  | CBAnd | CBOr | CBXor | CShl | CShr

type cunop = CNeg | CNot | CBNot

type cexpr =
  | EInt of int
  | ELong of int64
  | EFloat of float
  | EDouble of float
  | EChar of char
  | EBool of bool
  | EVar of string
  | EBin of cbinop * cexpr * cexpr
  | EUn of cunop * cexpr
  | EIndex of cexpr * cexpr
  | ECall of string * cexpr list
      (** C math library: sqrt, exp, log, pow, floor, ceil, fabs, fmin,
          fmax. *)
  | ECond of cexpr * cexpr * cexpr
  | ECast of cty * cexpr

(** Merlin transformation pragmas (Table 1's design factors). *)
type pipeline_mode = PipeOn | PipeOff | PipeFlatten

type pragma =
  | Pipeline of pipeline_mode
  | Parallel of int          (** Coarse/fine-grained parallel factor. *)
  | Tile of int              (** Loop tiling factor. *)

type cstmt =
  | SDecl of cty * string * cexpr option
  | SAssign of cexpr * cexpr   (** lvalue is [EVar] or [EIndex]. *)
  | SIf of cexpr * cstmt list * cstmt list
  | SWhile of cexpr * cstmt list
  | SFor of loop
  | SExpr of cexpr
  | SReturn of cexpr option

and loop = {
  lid : int;
  lvar : string;
  lvty : cty;       (** Declared type of the induction variable. *)
  ldecl : bool;
      (** [true]: the for-init declares the variable
          ([for (int v = ...)]), which C99 scopes to the loop.
          [false]: the variable is declared outside the loop and the
          for-init only assigns it ([for (v = ...)]); its exit value is
          observable after the loop, so transforms that rebuild the
          counter (tiling, unrolling) must refuse such loops. *)
  llo : cexpr;
  lhi : cexpr;      (** Exclusive bound. *)
  lstep : int;
  lbody : cstmt list;
  lpragmas : pragma list;
}

type cparam = {
  cpname : string;
  cpty : cty;
  cpbitwidth : int option;
      (** Off-chip interface bit-width for pointer parameters. *)
}

type cfunc = {
  cfname : string;
  cfparams : cparam list;
  cfret : cty option;
  cfbody : cstmt list;
}

type cprog = { cfuncs : cfunc list }

val fresh_loop_id : unit -> int
(** Process-wide unique loop ids for newly created loops. *)

val mk_loop :
  ?vty:cty -> ?decl:bool -> var:string -> lo:cexpr -> hi:cexpr ->
  ?step:int -> cstmt list -> loop
(** A loop with a fresh id and no pragmas. [vty] is the induction
    variable's declared C type (default [CInt]); transforms that
    reconstruct the variable (e.g. tiling) must preserve it or a
    [long]-counted loop is silently narrowed. [decl] (default
    [true]) is the {!loop.ldecl} flag: pass [false] when the counter is
    declared outside the loop and the header only assigns it. *)

val ty_bits : cty -> int
(** Storage width of a scalar type in bits (array/pointer: element's). *)

val const_int_of : cexpr -> int option
(** [Some n] when the expression folds to an integer constant. *)

val find_cfunc : cprog -> string -> cfunc option

val map_loops : (loop -> loop) -> cstmt list -> cstmt list
(** Bottom-up rewriting of every loop in a statement list. *)

val iter_loops : (int list -> loop -> unit) -> cstmt list -> unit
(** [iter_loops f body] calls [f ancestors loop] top-down, where
    [ancestors] is the list of enclosing loop ids, outermost first. *)

val pp_cty : Format.formatter -> cty -> unit

val pp_expr : Format.formatter -> cexpr -> unit

val pp_func : Format.formatter -> cfunc -> unit
(** Emit compilable-looking HLS C with [#pragma ACCEL] annotations. *)

val pp_prog : Format.formatter -> cprog -> unit

val to_string : cprog -> string
