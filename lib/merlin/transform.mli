module Csyntax = S2fa_hlsc.Csyntax

module Canalysis = S2fa_hlsc.Canalysis

(** The Merlin-style source-to-source transformation library.

    A design point (one assignment of Table 1's factors) is applied to the
    generated C: loop tiling physically splits loops, parallel and pipeline
    factors become [#pragma ACCEL] annotations interpreted by the HLS
    estimator, and buffer bit-widths are set on the kernel interface.

    {!summarize} is {!apply}'s counterpart for estimation: it builds the
    analysis of the rewritten program ({!Canalysis.analyze} of each
    function of [apply cfg prog]) from an analysis of [prog] made once,
    without rewriting or re-analysing anything.

    [real_unroll] additionally performs textual unrolling; it exists so
    property tests can check that unrolling preserves semantics.

    Every variable a rewrite introduces (the tiled loop's [v_t] and
    [v_i], the unrolled counter [v_u], the reduction's [v_r] and lanes
    [acc_r0], ...) takes that name when no variable of the function
    has it, else the first free [name1], [name2], ... *)

(** Per-loop design factors. *)
type loop_cfg = {
  lc_tile : int;                          (** 1 = no tiling. *)
  lc_parallel : int;                      (** 1 = sequential. *)
  lc_pipeline : Csyntax.pipeline_mode;
}

val default_loop_cfg : loop_cfg

(** A full design point. *)
type config = {
  cfg_loops : (int * loop_cfg) list;      (** Keyed by loop id. *)
  cfg_bitwidths : (string * int) list;    (** Buffer name -> bits. *)
}

val empty_config : config

val loop_cfg_of : config -> int -> loop_cfg

val pp_config : Format.formatter -> config -> unit

exception Transform_error of string

val apply : config -> Csyntax.cprog -> Csyntax.cprog
(** Rewrite the program for a design point. Tiling a loop of id [l]
    produces an outer loop that keeps id [l] (carrying the pipeline
    pragma) and a fresh inner loop ({!Csyntax.fresh_loop_id}) carrying
    the parallel pragma; an untiled loop receives both pragmas
    directly. Unknown loop ids are ignored (they may belong to a sibling
    function). Raises {!Transform_error} for invalid factors (tile or
    parallel < 1) and for tiling a loop {!tile_refusal} refuses. Under
    a profiler each call is one [merlin.apply] span counting
    [transforms.applied]. *)

val tile_refusal : Csyntax.loop -> string option
(** [None] when tiling may split the loop; else why not, the message of
    {!Transform_error}: a step other than 1, a body that writes the
    counter, or a counter declared outside the loop (its exit value is
    observable). A write counts only where the counter is in scope: not
    after a declaration of its name, nor in the body of a nested loop
    that declares a counter of that name; a nested loop that counts
    with the name without declaring it writes it. The design space
    offers a tiling factor only for loops this accepts. *)

(** {1 Design summaries} *)

type analysis
(** The analysis of a program that every design's summary is built
    from: per function, its {!Canalysis.summary} and, for every loop
    {!tile_refusal} accepts, the analysis of its tiled outer and inner
    loops, none of which depends on the tile factor. It is derived from
    the program alone and holds no design. *)

val analyse : Csyntax.cprog -> analysis
(** The analysis of every function of the program. Under a profiler
    each call is one [merlin.analyse] span; it counts nothing and draws
    no loop id. *)

val summarize : config -> analysis -> (string * Canalysis.summary) list
(** [summarize cfg (analyse prog)] is, function by function in program
    order, [(f.cfname, Canalysis.analyze f)] for each [f] of
    [apply cfg prog], equal in every field but the bodies of the
    [li_loop] records, which it does not rewrite (a tiled loop's two
    records have none):
    an untiled loop keeps its analysis and takes the design's pragmas,
    a tiled loop contributes its outer and inner loops with the
    factor's trip counts, and buffers take the design's bit-widths.
    This holds for every program because {!Canalysis.analyze} resolves
    names by block scope: tiling changes the analysis of the tiled
    loops only. It raises the {!Transform_error} [apply] raises, draws
    one {!Csyntax.fresh_loop_id} per tiled loop in [apply]'s order, and
    is one [merlin.apply] span counting [transforms.applied]. It
    produces no program, so the self-check below never runs on it. *)

val real_unroll : factor:int -> loop_id:int -> Csyntax.cprog -> Csyntax.cprog
(** Textually unroll a counted loop by [factor] (with a remainder guard),
    for semantics-preservation tests. *)

val tree_reduce : lanes:int -> loop_id:int -> Csyntax.cprog -> Csyntax.cprog
(** Re-group a scalar reduction loop into [lanes] independent partial
    accumulators combined after the loop — the rewrite that exposes
    reduction parallelism to the HLS scheduler. Only legal for counted
    step-1 loops whose body is exactly [acc = acc op e] with [op] in
    [{+, *}] and an {e integer} accumulator/operand: modular int and long
    arithmetic is associative, floats are not, so float reductions are
    refused with {!Transform_error}. Unknown loop ids are ignored. *)

val set_self_check : bool -> unit
(** Enable the debug-assert mode in which every structural rewrite
    ([apply], [real_unroll], [tree_reduce]) is re-verified against its
    input by the bounded symbolic evaluator ({!S2fa_sym.Sym.equiv}) on
    small default buffer capacities. A refuted rewrite raises
    {!Transform_error} carrying the concrete counterexample; [Unknown]
    verdicts pass (the check is a backstop, not a gate). Also enabled by
    setting [S2FA_TRANSFORM_VERIFY=1] in the environment. It re-proves
    every program that is actually produced (Blaze and fleet
    accelerators, [compile --design], the fuzzer); the DSE estimates
    design points through {!summarize} and produces no program. *)

val self_check_enabled : unit -> bool
