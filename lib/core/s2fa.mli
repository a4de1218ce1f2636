module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Interp = S2fa_jvm.Interp
module Csyntax = S2fa_hlsc.Csyntax
module Decompile = S2fa_b2c.Decompile
module Transform = S2fa_merlin.Transform
module Estimate = S2fa_hls.Estimate
module Space = S2fa_tuner.Space
module Tuner = S2fa_tuner.Tuner
module Resultdb = S2fa_tuner.Resultdb
module Dspace = S2fa_dse.Dspace
module Driver = S2fa_dse.Driver
module Rng = S2fa_util.Rng
module Telemetry = S2fa_telemetry.Telemetry

(** The S2FA framework facade (Fig. 1 of the paper): one entry point per
    stage of the flow, from Scala source text to a deployed Blaze
    accelerator.

    {[
      let c = S2fa.compile sw_source ~in_caps:[64;64] ~out_caps:[128;128] in
      let dse = S2fa.explore c (Rng.create 1) in
      let accel = S2fa.make_accelerator c (best_cfg dse) ~fields:[] in
      Blaze.register manager accel
    ]} *)

exception Error of string
(** Wraps stage errors (parse, type, compile, decompile) with a uniform
    message carrying the failing stage. *)

type compiled = {
  c_class : Insn.cls;             (** Bytecode of the kernel class. *)
  c_pretty : Csyntax.cprog;       (** Generated C (call + kernel), for display. *)
  c_flat : Csyntax.cprog;         (** [call] inlined into the task loop. *)
  c_iface : Decompile.iface;      (** Interface layout for Blaze serde. *)
  c_dspace : Dspace.t;            (** Identified design space (Table 1). *)
  c_buffer_elems : (string * int) list;
  c_input_ty : Ast.ty;
  c_output_ty : Ast.ty;
  c_analysis : Transform.analysis Lazy.t;
      (** [Transform.analyse c_flat], derived from [c_flat] alone like
          [c_dspace] and built by the first {!estimate}: compiling
          never analyses, and no design or result is kept in it. *)
}

val compile :
  ?class_name:string ->
  ?operator:[ `Map | `Reduce ] ->
  ?in_caps:int list ->
  ?out_caps:int list ->
  ?field_caps:(string * int) list ->
  string ->
  compiled
(** Parse, type-check, compile to bytecode, verify, decompile to C and
    identify the design space. [class_name] selects a class when the
    source defines several (default: the first [Accelerator] class).
    Under a profiler the whole call is one [core.compile] span, holding
    one span per stage ([scala.parse], [scala.typecheck],
    [jvm.compile], [b2c.decompile], [b2c.flatten]). *)

val apply_design : compiled -> Space.cfg -> Csyntax.cprog
(** The flat kernel with a design point's Merlin transformations
    applied. *)

val estimate : ?tasks:int -> compiled -> Space.cfg -> Estimate.report
(** HLS-estimate a design point (default 4096 tasks): the report of
    [Estimate.estimate (apply_design c cfg)], float for float, with the
    same [Transform_error] and the same loop ids drawn. It builds the
    design's summary from [c_analysis] ([Transform.summarize], one
    [merlin.apply] span) and runs [Estimate.model] on it (one
    [hls.estimate] span), so no program is rewritten or re-analysed. *)

val objective :
  ?tasks:int ->
  ?db:Resultdb.t ->
  compiled ->
  Space.cfg ->
  Tuner.eval_result
(** The DSE objective: the kernel's estimated execution cycles at the
    achieved frequency (Fig. 3's "normalized execution cycle" metric),
    infinite when infeasible, with the simulated evaluation cost. [db]
    does {e not} memoize here (the tuner owns memoization); it only
    enriches the point's database entry with the full estimator tuple
    (cycles, frequency, resource percentages). Under a profiler each
    call is one [merlin.apply] and one [hls.estimate] span. *)

val explore :
  ?opts:Driver.s2fa_opts -> ?tasks:int -> ?db:Resultdb.t ->
  ?trace:Telemetry.t -> ?faults:S2fa_fault.Fault.t ->
  ?checkpoint:Driver.ck_opts -> compiled -> Rng.t -> Driver.run_result
(** Run the full S2FA DSE flow. With [db], all partitions, techniques and
    the offline sampling pass share one result database: duplicate design
    points cost a zero-minute lookup instead of a simulated HLS run, with
    every measured quality unchanged ({!Resultdb}'s clock contract), and
    the run's cache counters are reported in
    {!Driver.run_result.rr_cache}. With [trace], the run is recorded as
    a structured event stream (see {!Driver.run_s2fa}) that
    [Trace.replay] reduces; tracing never changes the search
    trajectory. With [faults], every search-phase
    evaluation runs behind the injector's retry/backoff/quarantine
    policy ({!Driver.run_s2fa}); [checkpoint] snapshots the run
    periodically for {!resume}. *)

val explore_vanilla :
  ?time_limit:float -> ?tasks:int -> ?db:Resultdb.t ->
  ?trace:Telemetry.t -> ?faults:S2fa_fault.Fault.t ->
  ?checkpoint:Driver.ck_opts -> compiled -> Rng.t -> Driver.run_result
(** Run the vanilla-OpenTuner baseline (same [db], [trace], [faults]
    and [checkpoint] semantics as {!explore}). *)

val resume :
  ?opts:Driver.s2fa_opts -> ?tasks:int -> ?db:Resultdb.t ->
  ?trace:Telemetry.t -> ?faults:S2fa_fault.Fault.t ->
  ?checkpoint:Driver.ck_opts -> ?file:string -> snapshot:Driver.ck ->
  compiled -> Rng.t -> (Driver.run_result, string) result
(** {!Driver.resume_from_checkpoint} with this kernel's objective: the
    replay-based recovery that re-runs the snapshot's flow and
    validates the regenerated state byte for byte against it; an
    [Error] names [file], where the snapshot was read from. *)

val make_accelerator :
  ?design:Space.cfg -> compiled -> fields:(string * Interp.value) list ->
  S2fa_blaze.Blaze.accel
(** Package the (optionally transformed) kernel as a Blaze accelerator;
    its id is the class's [id] constant (falling back to the class
    name). *)

val serve_app :
  ?design:Space.cfg ->
  ?weight:float ->
  ?batch:int ->
  ?queue_cap:int ->
  name:string ->
  fields:(string * Interp.value) list ->
  compiled ->
  S2fa_fleet.Fleet.app
(** Package the compiled kernel as one tenant of a serving pool
    ({!S2fa_fleet.Fleet.serve}): the accelerator from
    {!make_accelerator} plus the bytecode class and field bindings the
    JVM-fallback path replays. Defaults: weight 1, batch 16, queue
    capacity 64. *)

val emit_c : ?design:Space.cfg -> compiled -> string
(** Pretty-print the generated HLS C (for the display program, the
    design's pragmas applied when given). *)
