module Ast = S2fa_scala.Ast

(** Bytecode interpreter with an instruction-level cost model.

    This is the "JVM" of the reproduction: it executes kernels for
    functional results and accounts a cycle cost per instruction. The cost
    table reflects a JIT-compiled single JVM thread (the Fig. 4 baseline):
    cheap register traffic, expensive division/transcendentals, and a
    visible overhead for object (tuple) allocation and virtual calls —
    the overheads S2FA's flattening removes on the FPGA side. *)

type value =
  | VInt of int
  | VLong of int64
  | VFloat of float
  | VDouble of float
  | VBool of bool
  | VChar of char
  | VUnit
  | VArr of varray
  | VTuple of value array

and varray = { aelem : Ast.ty; adata : value array }

exception Runtime_error of string

val default_value : Ast.ty -> value
(** The JVM zero value of a type (arrays/tuples are not allocatable this
    way and raise {!Runtime_error}). *)

val value_of_lit : Ast.lit -> value

val alloc_array : Ast.ty -> int list -> value
(** [alloc_array elem dims] allocates a (possibly nested) array filled
    with zero values. *)

val equal_value : value -> value -> bool
(** Structural equality; arrays compare element-wise. *)

val pp_value : Format.formatter -> value -> unit

(** Cycle cost per instruction category. *)
type cost_model = {
  c_const : float;
  c_local : float;          (** load/store *)
  c_array_access : float;   (** aload/astore *)
  c_alloc_per_elem : float;
  c_tuple_alloc : float;    (** boxing + allocation *)
  c_tuple_get : float;
  c_field : float;
  c_int_add : float;
  c_int_mul : float;
  c_int_div : float;
  c_fp_add : float;
  c_fp_mul : float;
  c_fp_div : float;
  c_math : string -> float; (** per intrinsic *)
  c_branch : float;
  c_invoke : float;
  c_conv : float;
}

val default_cost_model : cost_model

type instance = { icls : Insn.cls; ifields : (string * value) list }
(** An object of a compiled class with its constructor-parameter values. *)

type result = {
  rvalue : value;
  rcycles : float;  (** Modeled JVM cycles consumed. *)
  rinsns : int;     (** Bytecode instructions executed. *)
}

val run_method :
  ?cost:cost_model -> ?fuel:int -> instance -> string -> value list -> result
(** [run_method inst name args] executes method [name]. [fuel] bounds the
    number of executed instructions (default 200 million); exhausting it
    raises {!Runtime_error}. A profiler counts the instructions of each
    completed call as [jvm.insns]. *)
