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

type t = {
  ds_space : Space.space;
  ds_loop_ids : int list;          (** All loops, pre-order. *)
  ds_task_loop : int;              (** The compiler-inserted outer loop. *)
  ds_inner_ids : int list;         (** Deepest-level loop ids. *)
  ds_buffers : string list;
}

val identify : ?max_factor:int -> Csyntax.cprog -> t
(** Analyze the [kernel] function of a flat program. [max_factor] caps
    tiling/parallel factors (default 256; the task loop is capped at
    1024 for tiling). *)

val to_merlin : t -> Space.cfg -> Transform.config
(** Interpret a configuration as Merlin transformation directives. A
    factor the configuration does not bind to a value of its kind takes
    its default (tile and parallel factor 1, pipeline off, bit-width
    32); when a name is bound twice, the first binding wins. *)

val tile_name : int -> string
val par_name : int -> string
val pipe_name : int -> string
val bw_name : string -> string
