module Ast = S2fa_scala.Ast
module Insn = S2fa_jvm.Insn
module Interp = S2fa_jvm.Interp
module Csyntax = S2fa_hlsc.Csyntax
module Decompile = S2fa_b2c.Decompile
module Estimate = S2fa_hls.Estimate

(** The Blaze runtime simulator: an accelerator manager that RDD
    transformations can dispatch to (Section 2 of the paper).

    An accelerator is registered under its string id with the generated
    flat kernel (best design applied), its interface layout and the
    class-field (broadcast) values. [map_accelerated] then plays the
    role of [blaze.wrap(rdd).map(new Kernel)]: it batches each RDD
    partition, serializes through the generated layout, executes the C
    kernel for functional results, and accounts simulated time from the
    HLS performance model — against which [map_jvm] provides the
    single-threaded JVM executor baseline of Fig. 4. *)

exception Blaze_error of string

type accel = {
  acc_id : string;
  acc_prog : Csyntax.cprog;     (** Flat kernel, design applied. *)
  acc_iface : Decompile.iface;
  acc_input_ty : Ast.ty;
  acc_output_ty : Ast.ty;
  acc_fields : (string * Interp.value) list;
  acc_buffer_elems : (string * int) list;
}

type manager

val create_manager : unit -> manager
(** A manager with no accelerator registered. It emits no trace
    events; {!map_accelerated} counts each dispatch's work. *)

val register : manager -> accel -> unit
(** Compiles the kernel ({!S2fa_hlsc.Cinterp.compile}) and keeps it with
    the registration, together with a memo of the HLS estimate per batch
    size ({!report}). Replaces any accelerator previously registered
    under the same id, so a re-registered (promoted) design runs its own
    freshly compiled kernel and estimates. *)

val find : manager -> string -> accel option

type timed_result = {
  tr_values : Interp.value array;
  tr_seconds : float;
  tr_detail : (string * float) list;
      (** Time breakdown: serde, transfer+compute, invoke overhead —
          or jvm for the baseline. *)
}

val report : manager -> id:string -> int -> Estimate.report
(** [report m ~id n] is the registration's HLS estimate of a batch of [n]
    tasks on the VU9P. The first call per batch size computes it (one
    [hls.estimate] profiler span, the profiler's virtual clock left
    where it was) and the registration keeps it: {!map_accelerated}
    reads the same memo, and so does the serving fleet when it sizes a
    batch. Raises {!Blaze_error} when the id is unknown. *)

val map_accelerated : manager -> id:string -> Interp.value array -> timed_result
(** Run a batch of tasks on the registered accelerator, timed by its
    {!report}. Raises {!Blaze_error} when the id is unknown or
    (de)serialization fails. Each batch adds its tasks and the bytes it
    moves to the profiler counters [blaze.tasks] and [serde.bytes]. *)

val reduce_accelerated :
  manager -> id:string -> Interp.value array -> timed_result
(** Fold a batch through a reduce-operator accelerator (registered from
    a kernel compiled with [`Reduce]); [tr_values] holds the single
    combined value. Raises {!Blaze_error} on an empty batch, an unknown
    id, or a map-operator accelerator. *)

val map_jvm :
  Insn.cls -> fields:(string * Interp.value) list -> Interp.value array ->
  timed_result
(** The baseline: execute [call] per task on the bytecode interpreter,
    timing a single-threaded Spark executor (3 GHz core, the
    interpreter's per-instruction cycle costs). *)

val reduce_jvm :
  Insn.cls ->
  fields:(string * Interp.value) list ->
  Interp.value array ->
  timed_result
(** The JVM baseline of the reduce operator: a left fold of the batch
    through [call] on the bytecode interpreter. *)

val jvm_hz : float
(** Clock rate assumed for the JVM core (3 GHz). *)

val spark_cost_factor : float
(** Multiplier on modeled instruction cycles accounting for Spark's
    closure dispatch, boxing and GC pressure (calibration constant). *)

val spark_task_overhead_cycles : float
(** Fixed per-record executor overhead in cycles (~2 us). *)
