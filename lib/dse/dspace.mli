module Space = S2fa_tuner.Space
module Transform = S2fa_merlin.Transform
module Csyntax = S2fa_hlsc.Csyntax

(** Design-space identification (Table 1 of the paper).

    From the flat kernel's loop nest and interface buffers this derives
    the tunable parameters: per loop a tiling factor and a parallel
    factor in (1, TC(L)) (powers of two) and a pipeline mode in
    {off, on, flatten}; per off-chip buffer a bit-width 2^n in (8, 512].
    A loop Merlin cannot tile ({!Transform.tile_refusal}: a step other
    than 1, a body writing the counter, or a counter declared outside
    the loop) gets no tiling factor. *)

(** A factor of the kernel: a loop's tiling factor, parallel factor or
    pipeline mode (by loop id), or a buffer's bit-width. *)
type factor = Tile of int | Par of int | Pipe of int | Bw of string

type plan
(** Which slot of the space's shape binds each factor, resolved once
    from the slot names. *)

type t = private {
  ds_space : Space.space;
  ds_loop_ids : int list;          (** All loops, pre-order. *)
  ds_task_loop : int;              (** The compiler-inserted outer loop. *)
  ds_inner_ids : int list;         (** Deepest-level loop ids. *)
  ds_buffers : string list;
  ds_plan : plan;
}

val make :
  space:Space.space ->
  loop_ids:int list ->
  task_loop:int ->
  inner_ids:int list ->
  buffers:string list ->
  t

val identify : Csyntax.cprog -> t
(** Analyze the [kernel] function of a flat program. Tiling and parallel
    factors are capped at 256 (the task loop's tiling factor at 1024
    instead) and at the loop's trip count. *)

val to_merlin : t -> Space.cfg -> Transform.config
(** Interpret a configuration as Merlin transformation directives. A
    factor the configuration does not bind to a value of its kind takes
    its default (tile and parallel factor 1, pipeline off, bit-width
    32); when a name is bound twice, the first binding wins. A
    configuration of [ds_space]'s shape is read through the plan made
    with [t]; any other is read by name. *)

val design : t -> (factor -> Space.value) -> Space.cfg
(** The configuration, read by name, that binds every factor of every
    loop and buffer [f] to [value f], legal or not. *)

val fit : t -> Space.space -> (factor -> Space.value) -> Space.cfg
(** The same design clamped into [space], a restriction of [ds_space]
    (as {!Space.project} clamps it), built in the space's shape. *)

val tile_name : int -> string
val par_name : int -> string
val pipe_name : int -> string
val bw_name : string -> string
