module Csyntax = S2fa_hlsc.Csyntax
module Canalysis = S2fa_hlsc.Canalysis

(** The HLS estimator — the reproduction's stand-in for Xilinx SDx.

    Given the transformed flat kernel (pragmas applied by
    {!S2fa_merlin.Transform}), or its analysis ({!model}: the summaries
    [Transform.summarize] derives for a design point without rewriting
    the kernel), it performs a modulo-scheduling-flavoured
    latency estimate per loop nest (initiation intervals bounded by
    recurrences and memory ports), a resource estimate (LUT/FF/DSP/BRAM,
    with operator sharing when a loop is not pipelined and replication
    when it is unrolled or flattened), a post-route frequency model
    (degrading with utilization and unroll-induced routing pressure), a
    feasibility verdict against the 75% utilization cap of the paper, and
    a simulated evaluation latency in minutes (the cost of one HLS run,
    which drives the Fig. 3 x-axis). *)

type report = {
  r_cycles : float;       (** Kernel compute cycles for [tasks] tasks. *)
  r_ii : float;           (** Worst II among pipelined loops. *)
  r_freq_mhz : float;
  r_seconds : float;      (** Wall time including off-chip transfer. *)
  r_compute_seconds : float;
  r_xfer_seconds : float;
  r_lut_pct : float;      (** Utilization vs the whole device, 0..1. *)
  r_ff_pct : float;
  r_bram_pct : float;
  r_dsp_pct : float;
  r_feasible : bool;      (** All resources within the 75% cap. *)
  r_eval_minutes : float; (** Simulated duration of this HLS run. *)
}

val estimate :
  ?device:Device.t ->
  Csyntax.cprog ->
  tasks:int ->
  buffer_elems:(string * int) list ->
  report
(** [estimate prog ~tasks ~buffer_elems] analyzes every function of
    [prog] ({!Canalysis.analyze}) and runs {!model} on the result: it
    estimates the [kernel] function, costing calls to the others as
    shared helper units. [buffer_elems] gives elements-per-task for each
    interface buffer (from the b2c layout). A loop bound that is not a
    compile-time constant counts 64 trips, except the task loop's (trip
    [N]), which is evaluated at [tasks]. [device] defaults to the
    VU9P. Under a profiler each call is one [hls.estimate] span,
    analysis included, counting [hls.evals]. *)

val model :
  (string * Canalysis.summary) list ->
  tasks:int ->
  buffer_elems:(string * int) list ->
  report
(** The estimator over an analysed program: one summary per function,
    by name, in program order, as {!estimate} builds them, or as
    [S2fa_merlin.Transform.summarize] derives them for a design point
    without rewriting the program, on {!estimate}'s default device and
    nominal trip count. It reads of each loop only its analysis and the
    id and pragmas of its [li_loop], and of the interface only
    [buffers] (a buffer's bit-width defaults to 32). Equal summaries
    give bit-identical reports. Raises [Invalid_argument]
    when no function is named [kernel]. One [hls.estimate] span
    counting [hls.evals]. *)

val check_report : report -> (unit, string) result
(** Structural sanity check on a report — the defense against a
    corrupted tool run (the fault injector's [Transient] failure).
    Rejects, with a reason: any NaN field, negative or non-finite cycle
    counts, an initiation interval below 1, non-positive frequency /
    execution time / eval-minutes, negative utilization, and a report
    claiming feasibility at >100% utilization. Genuinely infeasible
    designs reporting their honest oversubscription (>100% with
    [r_feasible = false]) pass: only the inconsistent combination is
    corrupt. Every report {!estimate} itself produces satisfies this
    (asserted across all 8 workloads in [test/test_fault.ml]). *)

val report_ok : report -> bool
(** [Result.is_ok (check_report r)]. *)

val report_bits : report -> int64 list * bool
(** Every float of the report by its bits, in field order, and
    feasibility: two reports are the same estimate when these are
    equal. *)

val pp_report : Format.formatter -> report -> unit
