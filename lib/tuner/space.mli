module Rng = S2fa_util.Rng

(** Tunable-parameter spaces and configurations, in the image of
    OpenTuner's [ConfigurationManipulator].

    A space is compiled once by {!make}: its parameters in declaration
    order, each parameter's legal values, and a {e shape}, the
    parameter names sorted by [String.compare] with, per name (a
    {e slot}), the value table of the space it was made from. Every
    {!restrict}ion of a space, and every configuration drawn in either,
    shares that shape.

    A configuration is a shape plus one byte per slot, the index of its
    value in the slot's table. Inside a run, configurations of one
    space are told apart by those bytes ({!code}). Where a design point
    leaves the run (the result database, checkpoints, traces, goldens
    and CLI output), its identity is its {!key} string.

    A configuration built by {!of_list} has a shape of its own, one
    slot per binding, and is read by name: manual designs, seeds before
    projection and literals. It joins a space's shape through
    {!project}, or {!join} when a tuner takes it as a seed. *)

type param =
  | PInt of string * int * int
      (** [PInt (name, lo, hi)]: integer in [\[lo, hi\]]. *)
  | PPow2 of string * int * int
      (** [PPow2 (name, lo, hi)]: a power of two in [\[lo, hi\]]
          (bounds are rounded to powers of two internally). *)
  | PEnum of string * string list

type value = VInt of int | VStr of string

type space

type cfg

val param_name : param -> string

val values_of : param -> value list
(** Every legal value of a parameter, in ascending order. *)

val make : param list -> space
(** Compile a space. Raises [Invalid_argument] naming the parameter
    when a name is declared twice, when a parameter repeats a value, or
    when it has more than 256 values. *)

val params : space -> param list
(** In declaration order. *)

val restrict : space -> (param -> param) -> space
(** [restrict s f] narrows every parameter [p] to [f p], which keeps
    [p]'s name and offers only values of the table [s] was made with.
    The result shares [s]'s shape. Raises [Invalid_argument] naming the
    parameter otherwise. *)

val cardinality : space -> float
(** Number of points in the space (as float: spaces exceed 2^62). *)

val of_list : (string * value) list -> cfg
(** A configuration read by name, bindings sorted by name with a stable
    sort, so bindings of one name keep their order. *)

val to_list : cfg -> (string * value) list
(** The bindings, sorted by name. *)

val find : cfg -> string -> value option
(** The first binding of a name. *)

val reader : space -> string -> cfg -> value option
(** [reader s name] is [fun cfg -> find cfg name], reading a
    configuration of [s]'s shape through the name's slot. *)

val get_int : cfg -> string -> int
(** Value of an integer-valued parameter; raises [Not_found] when absent,
    [Invalid_argument] when it holds a string. *)

val get_str : cfg -> string -> string

val set : cfg -> string -> value -> cfg
(** Rebind a name, as {!of_list} of the rebound bindings. *)

val random_cfg : Rng.t -> space -> cfg

val mutate : Rng.t -> space -> cfg -> cfg
(** Mutate each parameter independently with probability 0.25 to a
    uniformly random legal value; guarantees at least one parameter
    changes. The configuration must have the space's shape, as must
    those of {!neighbor}, {!changed_params} and {!to_floats}
    ([Invalid_argument] otherwise). *)

val neighbor : Rng.t -> space -> cfg -> cfg
(** Change exactly one parameter to an adjacent legal value (for
    simulated annealing). *)

val changed_params : cfg -> cfg -> string list
(** Names of parameters whose values differ, in sorted order. *)

val code : cfg -> string
(** One byte per slot, the index of its value: equal codes of one
    shape are equal configurations. *)

val key : cfg -> string
(** Canonical key: the bindings as [name=value] (an int in decimal, as
    [string_of_int] writes it; a string as it is) in sorted order,
    joined by [;]. For example [bw_in=512;par_L3=8;pipe_L3=flatten]. *)

val to_floats : space -> cfg -> float array
(** Encode into \[0,1\]^n (parameter order of [space]) for the numeric
    techniques (DE, PSO). *)

val of_floats : space -> float array -> cfg
(** Decode, snapping each coordinate to the nearest legal value. *)

val project : space -> cfg -> cfg
(** Clamp a configuration into [space], reading it by name unless it
    has the space's shape: a legal value is kept, an integer moves to
    the nearest legal integer (the first one on ties), and anything
    else, or no value at all, becomes the parameter's first legal
    value. *)

val join : space -> cfg -> cfg
(** The same bindings in [space]'s shape. Raises [Invalid_argument]
    naming the parameter unless the configuration binds exactly the
    space's parameters, each to a value of its table. *)

(** {2 Slots}

    For readers that resolve a shape's names once and then read
    configurations slot by slot. *)

type shape

val shape : cfg -> shape

val space_shape : space -> shape

val width : shape -> int

val slot_name : shape -> int -> string

val value_at : cfg -> int -> value

val fit : space -> (int -> value option) -> cfg
(** [fit s read]: the configuration of [s] whose parameter in slot [i]
    takes [read i], clamped as {!project} clamps. *)

val pp_cfg : Format.formatter -> cfg -> unit
