(** Persisted perf trajectories ([BENCH_<section>.json]) and the
    regression gate behind [s2fa perf diff].

    The file convention was seeded by PR 6's [BENCH_sym_verify.json]: a
    two-level JSON object [{ "bench": NAME, "unit": UNIT, "results":
    { key: number, ... } }] with one scalar per benchmark. {!save}
    writes that shape (keys sorted, one per line) and is the single
    writer the bench harness sections share; {!load} reads it back. *)

type t = {
  p_bench : string;               (** Section name, e.g. ["sym_verify"]. *)
  p_unit : string;                (** E.g. ["ns/run"] — lower is better. *)
  p_results : (string * float) list;  (** Sorted by key. *)
}

val save : string -> t -> unit

val load : string -> (t, string) result
(** Read a trajectory through {!S2fa_telemetry.Telemetry.Json}.
    Malformed JSON (a duplicate key or an out-of-range number included)
    is [Error "FILE:LINE: ..."] at the line where the parser stopped, a
    bad or missing member [Error "FILE:1: ..."], and an unreadable file
    [Error "FILE: reason"]. *)

(** One benchmark key present in both trajectories. [c_pct] is the
    relative change in percent ([+] slower, [-] faster, for
    lower-is-better units). *)
type change = { c_name : string; c_old : float; c_new : float; c_pct : float }

type diff = {
  d_regressions : change list;  (** Worse than [threshold]; sorted, biggest first. *)
  d_improvements : change list; (** Better than [threshold]; biggest first. *)
  d_within : int;               (** Common keys inside the threshold band. *)
  d_only_old : string list;     (** Keys that disappeared (informational). *)
  d_only_new : string list;     (** Keys that appeared (informational). *)
}

val diff : threshold:float -> t -> t -> diff
(** [threshold] is a percentage: a key regresses when
    [new > old * (1 + threshold/100)] (and mirrors for improvement).
    Keys whose old value is [0] are compared on the new value alone
    (any non-zero new value regresses). *)

val print_diff : Format.formatter -> threshold:float -> t -> t -> diff -> unit
(** Human-readable comparison; one line per regression/improvement plus
    a summary tail. *)
