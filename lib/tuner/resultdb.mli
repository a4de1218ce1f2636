(** The shared HLS result database — OpenTuner's results-DB counterpart.

    A content-addressed store keyed on {!Space.key}-canonical configuration
    strings, shared by every search technique, partition tuner and DSE flow
    of one exploration. Each entry holds the full outcome of one simulated
    SDx run: the quality metric, feasibility verdict and evaluation cost,
    optionally enriched with the estimator's cycle count, frequency and
    resource percentages.

    {b Determinism / clock contract.} A cache hit models "look the result up
    in the database", not "re-run SDx":

    - a hit returns {e exactly} the stored quality and feasibility, so no
      design point's measured quality ever changes between a memoized and a
      direct evaluation;
    - a hit reports [e_minutes = 0.0] and therefore {e must not advance the
      simulated HLS clock} — the skipped minutes are accrued in the stats as
      [sn_minutes_saved] instead. Fig. 3 virtual-time trajectories change
      only by skipping duplicate work, never by changing any measured value.

    [test/test_resultdb.ml] holds the differential harness proving both
    halves of the contract. *)

type eval_result = {
  e_perf : float;     (** Quality, lower is better ([infinity] when the
                          design point is infeasible). *)
  e_feasible : bool;
  e_minutes : float;  (** Simulated duration of the evaluation. *)
}
(** The tuple every DSE consumer reads; re-exported as
    {!Tuner.eval_result}. *)

(** Estimator enrichment stored alongside the result when the evaluation
    came from the full HLS estimator (Table-2 data: cycles, frequency,
    resources). *)
type detail = {
  d_cycles : float;
  d_freq_mhz : float;
  d_lut_pct : float;
  d_ff_pct : float;
  d_bram_pct : float;
  d_dsp_pct : float;
}

type entry = { en_result : eval_result; en_detail : detail option }

type t
(** A mutable result database with hit/miss/insert counters. *)

(** Immutable counter snapshot, for reports. *)
type snapshot = {
  sn_entries : int;        (** Distinct design points stored. *)
  sn_hits : int;           (** Lookups served from the database. *)
  sn_misses : int;         (** Lookups that required a real evaluation. *)
  sn_inserts : int;        (** New entries stored (re-inserts not counted). *)
  sn_rejected : int;
      (** Poisoned (quarantined) results the guard refused to store. *)
  sn_minutes_saved : float;
      (** Simulated HLS minutes the hits skipped — the duplicate work a
          DB-less run would have paid. *)
}

val create : unit -> t
(** Fresh empty database. *)

val length : t -> int
(** Distinct design points stored. *)

val lookup : t -> Space.cfg -> eval_result option
(** Counted lookup. [Some r] on a hit, with [r.e_minutes = 0.0] per the
    clock contract (the entry's stored minutes accrue to
    [sn_minutes_saved]); [None] on a miss. *)

val peek : t -> Space.cfg -> entry option
(** Uncounted raw access (for reports and tests); returns the entry as
    stored, including its real evaluation minutes. *)

val poisoned : eval_result -> bool
(** A quarantined result: the fault injector exhausted its retries on
    this point and returned a NaN-quality tombstone rather than a
    measurement. *)

val insert : t -> ?detail:detail -> Space.cfg -> eval_result -> unit
(** Store a freshly measured result. First write wins: re-inserting an
    existing key neither overwrites nor bumps [sn_inserts] (results are
    deterministic, so a second measurement carries no new information).
    A pending detail registered with {!attach_detail} is merged in.

    {b Poisoning guard.} A {!poisoned} result is refused (counted in
    [sn_rejected]): memoizing a transient tool failure would freeze it
    into a permanent verdict shared by every tuner, breaking the
    determinism contract — a fault-free re-run would measure the point
    honestly and disagree with the cache. Quarantined points therefore
    never enter the database ([test/test_fault.ml]). *)

val attach_detail : t -> Space.cfg -> detail -> unit
(** Enrich a key with estimator detail. Works before or after {!insert}:
    detail attached first is held pending and merged by the insert. *)

val memoize : t -> (Space.cfg -> eval_result) -> Space.cfg -> eval_result
(** [memoize db f] is [f] with the database in front: hits are served per
    the clock contract, misses evaluate [f] once and store the result. *)

val to_list : t -> (string * eval_result) list
(** Every stored entry as [(canonical key, result)], sorted by key —
    the deterministic dump the DSE checkpointer serializes. *)

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counter deltas of one run against a database
    that was already in use (entries = the later absolute count). *)

val hit_rate : snapshot -> float
(** Hits over total lookups; [0.] when nothing was looked up. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
