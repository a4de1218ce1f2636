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

type instance = { icls : Insn.cls; ifields : (string * value) list }
(** An object of a compiled class with its constructor-parameter values. *)

type result = {
  rvalue : value;
  rcycles : float;  (** Modeled JVM cycles consumed. *)
  rinsns : int;     (** Bytecode instructions executed. *)
}

val run_method : ?fuel:int -> instance -> string -> value list -> result
(** [run_method inst name args] executes method [name], charging each
    instruction its category's cycles: a local load or store 1, an array
    access 4, a tuple allocation 24, an integer division 24, a
    floating-point division 22, a virtual call 40, a [math] intrinsic
    2–90. [fuel] bounds the number of executed instructions (default
    200 million); exhausting it raises {!Runtime_error}. A profiler
    counts the instructions of each completed call as [jvm.insns]. *)
