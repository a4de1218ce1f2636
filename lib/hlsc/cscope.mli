(** Name resolution for the HLS C dialect, shared by both evaluators
    ({!Cinterp} and [S2fa_sym.Sym]).

    A call's variables live in a frame: one slot per distinct parameter
    name and one per declaration (an [SDecl] or a [for (int v = ...)]
    counter). {!resolve} maps every name to its slot under C99 block
    scoping:
    - a declaration is visible to the rest of its statement list, and
      its initializer still sees the outer binding of its name;
    - an [if] branch or a loop body is a block of its own;
    - a counter declared in a for-init is visible to the bound and the
      body only, and the lower bound sees the outer scope.

    Every user call resolves to its callee; where two functions share a
    name, the first one is used, and a name no function has is a libm
    call. A name no declaration binds resolves to {!Unbound}, so that an
    evaluator reports it only when the code using it runs. *)

type var =
  | Slot of int
  | Unbound of string

type expr =
  | Int of int  (** int, char and bool literals *)
  | Long of int64
  | Float of float  (** float and double literals *)
  | Var of var
  | Bin of Csyntax.cbinop * expr * expr
  | Un of Csyntax.cunop * expr
  | Index of expr * expr  (** array, index *)
  | Call of func * expr list  (** a user function *)
  | Math of string * expr list  (** anything else: the libm subset *)
  | Cond of expr * expr * expr
  | Cast of Csyntax.cty * expr

and stmt =
  | Decl of Csyntax.cty * string * int * expr option
      (** type, name, slot, initializer *)
  | Assign of var * expr
  | Store of expr * expr * expr  (** array, index, value *)
  | Bad_assign of expr  (** an lvalue neither a variable nor an index *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of loop
  | Expr of expr
  | Return of expr option

and loop = {
  counter : var;
  declared : bool;  (** {!Csyntax.loop.ldecl}: [counter] is a fresh slot *)
  vty : Csyntax.cty;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
}

and func = {
  name : string;
  params : (Csyntax.cparam * int) list;
      (** Parameter order; a repeated name shares one slot. *)
  mutable slots : int;  (** Frame size. *)
  mutable fbody : stmt list;
}

val resolve : Csyntax.cprog -> func list
(** The first function of each name, in program order. Never fails. *)
