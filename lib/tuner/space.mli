module Rng = S2fa_util.Rng

(** Tunable-parameter spaces and configurations, in the image of
    OpenTuner's [ConfigurationManipulator].

    A configuration is an association list sorted by parameter name.
    Its {!key} string is the identity of a design point wherever one is
    stored or compared: the result database, checkpoints, traces and
    goldens. A DSE run calls {!key} and {!normalize} several times per
    evaluation, so they avoid [Printf] and polymorphic compare. *)

type param =
  | PInt of string * int * int
      (** [PInt (name, lo, hi)]: integer in [\[lo, hi\]]. *)
  | PPow2 of string * int * int
      (** [PPow2 (name, lo, hi)]: a power of two in [\[lo, hi\]]
          (bounds are rounded to powers of two internally). *)
  | PEnum of string * string list

type space = param list

type value = VInt of int | VStr of string

type cfg = (string * value) list
(** Always kept sorted by parameter name, so equal configs are
    structurally equal. *)

val param_name : param -> string

val values_of : param -> value list
(** Every legal value of a parameter, in ascending order. *)

val cardinality : space -> float
(** Number of points in the space (as float: spaces exceed 2^62). *)

val normalize : cfg -> cfg
(** Sort by name with [String.compare]. A stable sort, so bindings of
    one name keep their order; a list already sorted is returned as
    it is. *)

val get_int : cfg -> string -> int
(** Value of an integer-valued parameter; raises [Not_found] when absent,
    [Invalid_argument] when it holds a string. *)

val get_str : cfg -> string -> string

val set : cfg -> string -> value -> cfg

val random_cfg : Rng.t -> space -> cfg

val mutate : Rng.t -> space -> cfg -> ?rate:float -> unit -> cfg
(** Mutate each parameter independently with probability [rate]
    (default 0.25) to a uniformly random legal value; guarantees at
    least one parameter changes. *)

val neighbor : Rng.t -> space -> cfg -> cfg
(** Change exactly one parameter to an adjacent legal value (for
    simulated annealing). *)

val changed_params : cfg -> cfg -> string list
(** Names of parameters whose values differ. *)

val key : cfg -> string
(** Canonical key: the {!normalize}d bindings as [name=value] (an int
    in decimal, as [string_of_int] writes it; a string as it is),
    joined by [;]. For example [bw_in=512;par_L3=8;pipe_L3=flatten]. *)

val to_floats : space -> cfg -> float array
(** Encode into \[0,1\]^n (parameter order of [space]) for the numeric
    techniques (DE, PSO). *)

val of_floats : space -> float array -> cfg
(** Decode, snapping each coordinate to the nearest legal value. *)

val pp_cfg : Format.formatter -> cfg -> unit
