(** Pipeline-wide hierarchical span profiler.

    Layered on [lib/telemetry]'s determinism contract: every span carries
    the {e virtual} clock (simulated minutes, the same clock Fig. 3
    plots) on which its begin/end stamps are byte-reproducible under a
    fixed RNG seed, {e and} the host clock (wall nanoseconds plus
    bytes allocated) for real hotspot hunting. Serialization
    emits only the deterministic fields unless host mode is requested
    explicitly (the [S2FA_PROFILE_HOST] environment variable, or
    [~host:true]), so a span log taken twice under the same seed is
    bit-identical.

    Instrumented code does not thread a profiler through its signatures
    (that would touch every API in the tree); instead a single ambient
    profiler is installed per process, mirroring the
    [Transform.set_self_check] backstop. When no profiler is installed,
    every instrumentation point ({!span}, {!count}, {!count_by},
    {!set_clock}, {!advance_clock}, {!clock}) costs one [ref] read and
    performs no allocation — the zero-observer-effect differential tests in
    [test/test_obs.ml] hold the instrumented pipeline to that. *)

module Profiler : sig
  (** A completed span. [sp_wall_ns] / [sp_alloc_bytes] are host-side
      and non-deterministic; everything else is stable under a fixed
      seed. *)
  type span = {
    sp_id : int;            (** Allocation order (deterministic). *)
    sp_parent : int;        (** Parent span id, [-1] at the root. *)
    sp_name : string;       (** E.g. ["hls.estimate"]. *)
    sp_path : string;       (** Semicolon-joined ancestry incl. self. *)
    sp_vbegin : float;      (** Virtual minutes at open. *)
    sp_vend : float;        (** Virtual minutes at close. *)
    sp_wall_ns : float;     (** Host wall-clock nanoseconds spent. *)
    sp_alloc_bytes : float;
        (** Bytes allocated: minor words, plus major words not promoted
            from the minor heap. *)
    sp_counters : (string * int) list;  (** Sorted by name. *)
  }

  type t

  val create : unit -> t
  (** A profiler with no span recorded, its virtual clock at 0. *)

  val set_clock : t -> float -> unit
  (** Set the virtual minutes subsequent span stamps use. *)

  val clock : t -> float

  val spans : t -> span list
  (** Completed spans, in completion order (children before parents). *)

  val depth : t -> int
  (** Open spans on the stack (0 outside any {!val:span}). *)
end

(** {1 The ambient profiler} *)

val set_profiler : Profiler.t option -> unit

val profiler : unit -> Profiler.t option

val enabled : unit -> bool

val with_profiler : Profiler.t -> (unit -> 'a) -> 'a
(** Install [p], run the thunk, restore the previous profiler (also on
    exceptions). *)

(** {1 Instrumentation points} *)

val span : string -> (unit -> 'a) -> 'a
(** Bracket a computation in a named span. No-op without a profiler;
    closes the span when the thunk raises. Names should be
    dot-separated [layer.operation] (the first component feeds the
    per-stage share table); semicolons are rewritten to commas so the
    folded-stack encoding stays unambiguous. *)

val count : string -> unit
(** Bump a counter by one on the innermost open span. Ignored without a
    profiler or outside any span. *)

val count_by : int -> string -> unit
(** [count_by n name] adds [n] to the counter, like {!count}. The amount
    is not optional: a disabled call allocates nothing. *)

val set_clock : float -> unit
(** Update the ambient profiler's virtual clock; no-op when disabled.
    Drivers call this wherever they advance their telemetry clock. *)

val clock : unit -> float
(** The ambient profiler's current virtual minutes ([0.] when
    disabled). *)

val advance_clock : float -> unit
(** Add virtual minutes to the ambient clock. Cost models call this to
    charge their modeled time to the currently open span (the DSE
    driver re-anchors the clock absolutely at its own sites, so a charge
    made outside a driver-managed window only drifts the stamps until
    the next {!set_clock}). No-op when disabled. *)

(** {1 Serialization} *)

val span_to_json : ?host:bool -> Profiler.span -> string
(** One flat JSON object, no trailing newline. Counters appear as
    ["c.<name>"] keys, sorted. Host fields ([wall_ns], [alloc_bytes])
    are emitted only with [~host:true] — they are not reproducible. *)

val span_of_json : string -> Profiler.span option
(** Inverse of {!span_to_json}; [None] on malformed input. Host fields
    default to [0.] when absent. *)

val write_jsonl : ?host:bool -> out_channel -> Profiler.span list -> unit

val load_file : string -> (Profiler.span list, string) result
(** Parse a span JSONL file through {!S2fa_telemetry.Telemetry.Json};
    errors read ["FILE:LINE: reason"], or ["FILE: reason"] when the
    file cannot be read. *)

val host_requested : unit -> bool
(** True when [S2FA_PROFILE_HOST] is set to anything but ["0"]. *)

(** {1 Folded stacks (flamegraph.pl / speedscope)} *)

val folded : Profiler.span list -> (string * int) list
(** Aggregate {e self} virtual time by span path: weight is
    micro-minutes (rounded [1e6 * minutes]). When the whole profile has
    zero virtual duration (compile-only runs: [verify], [fuzz]), the
    weights fall back to span counts so the flamegraph still renders.
    Sorted by path. *)

val write_folded : out_channel -> Profiler.span list -> unit
(** One [path weight] line per {!folded} entry. *)

(** {1 Report (the [s2fa prof] subcommand)} *)

val print_report : ?top:int -> Format.formatter -> Profiler.span list -> unit
(** Span tree (aggregated by path) with total/self time, calls and
    counters; per-stage share table keyed on the first dot-component of
    each span name; top-[top] self-time hotspots (default 10). Host
    columns appear only when the log carries host fields. *)
