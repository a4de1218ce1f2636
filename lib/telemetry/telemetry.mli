(** Virtual-clock telemetry for the DSE stack.

    A deterministic observability layer: every event is stamped with the
    emitting flow's {e simulated} minutes (the same virtual clock Fig. 3
    plots) plus a monotonic sequence number — never the wall clock — so a
    trace taken under a fixed RNG seed is bit-reproducible, byte for byte
    of its JSONL encoding.

    The tracer is opt-in everywhere (mirroring the [?db] threading of the
    shared result database): instrumented code holds a [t option] and
    emits nothing — not even an allocation — when tracing is off. Sinks
    fan events out; three are built in: an in-memory ring ({!collector}),
    a JSONL writer ({!buffer_sink} / {!channel_sink}) and a human-readable
    {!logs_sink} over the [logs] library. The tracer keeps no tallies of
    its own: {!Trace.replay} is the one reducer of the event stream, and
    work is counted by the [S2fa_obs] counters.

    The trace records what a run decided, not where its time went: the
    pipeline stages ([scala.parse] through [b2c.flatten],
    [merlin.apply], [hls.estimate]) are timed only by the [S2fa_obs]
    span profiler ([--profile]). The vocabulary has no span events; a
    trace written while it had them fails to load at its first span
    line with "not a trace event". *)

(** Why a partition's tuner stopped (the [partition_stop] payload). *)
type stop_reason =
  | Stop_time       (** The core ran out of simulated budget. *)
  | Stop_exhausted  (** Shared-DB exhaustion guard: whole subspace proposed. *)
  | Stop_entropy    (** Entropy criterion (Eq. 2) fired. *)
  | Stop_trivial    (** Trivial consecutive-no-improvement criterion. *)

val stop_reason_name : stop_reason -> string

val stop_reason_of_name : string -> stop_reason option

(** The typed trace-event vocabulary. Conventions: [partition = -1] marks
    work outside any partition tuner (the offline rule-fitting samples);
    [technique = ""] marks an evaluation not proposed by a search
    technique (an injected seed, an offline sample). *)
type kind =
  | Run_begin of { flow : string; cores : int; time_limit : float }
  | Run_end of { minutes : float; evals : int; best : float }
      (** [best] is [infinity] when nothing feasible was found. *)
  | Eval_start of { cfg_key : string; partition : int; technique : string }
  | Eval_done of {
      cfg_key : string;
      quality : float;        (** [infinity] when infeasible. *)
      feasible : bool;
      eval_minutes : float;   (** Simulated cost; [0.] on a cache hit. *)
      cache_hit : bool;       (** Served by the shared result database. *)
      partition : int;
      technique : string;
      improved : bool;        (** Strictly improved its tuner's best. *)
    }
  | Bandit_select of { arm : int; technique : string; scores : float array }
      (** AUC exploitation scores of {e all} arms at selection time. *)
  | Partition_start of {
      partition : int;
      core : int;
      constrs : string;       (** Human-readable constraint conjunction. *)
      points : float;         (** Cardinality of the sub-space. *)
    }
  | Partition_stop of {
      partition : int;
      core : int;
      reason : stop_reason;
      evals : int;            (** Evaluations this partition consumed. *)
    }
  | Entropy_sample of { partition : int; evaluated : int; entropy : float }
  | Seed_injected of { cfg_key : string; partition : int }
  | Fault_injected of {
      cfg_key : string;
      partition : int;
      failure : string;       (** Failure class ({!S2fa_fault.Fault}'s
                                  [failure_name]): ["crash"], ["hang"],
                                  ["transient"], ["core_loss"]. *)
      lost_minutes : float;   (** Virtual minutes this attempt wasted. *)
      attempt : int;          (** 0-based attempt index that failed. *)
    }
  | Eval_retry of {
      cfg_key : string;
      partition : int;
      attempt : int;          (** 1-based index of the retry being made. *)
      backoff_minutes : float;
          (** Exponential-backoff pause charged to the virtual clock. *)
    }
  | Quarantined of {
      cfg_key : string;
      partition : int;
      attempts : int;         (** Attempts consumed before giving up. *)
      lost_minutes : float;   (** Total virtual minutes the point ate. *)
    }
  | Core_lost of { core : int; partition : int }
      (** A simulated worker core died; [partition] is the work it was
          running (-1 when idle). *)
  | Failover of { partition : int; from_core : int; to_core : int }
      (** The FCFS scheduler reassigned a lost core's partition to a
          survivor. *)
  | Checkpoint_written of { path : string; minutes : float; evals : int }
  | Serve_enqueue of { app : string; request : int; queue_len : int }
      (** A serving request was admitted to its application's bounded
          queue; [queue_len] is the length after insertion. Emitted
          again (with the rebuilt length) when in-flight work is
          re-queued after a device loss. *)
  | Serve_batch of {
      app : string;
      device : int;
      size : int;
      service_minutes : float;
          (** Modeled batch service time: reconfiguration (if any) +
              invocation overhead + PCIe transfer + kernel compute. *)
    }  (** [size] queued requests launched as one accelerator
           invocation. *)
  | Serve_reconfig of {
      device : int;
      from_app : string;  (** [""] on a cold first load. *)
      to_app : string;
      minutes : float;    (** The device's [reconfig_minutes]. *)
    }
  | Serve_fallback of { app : string; request : int; reason : string }
      (** The request bypassed the pool and ran on the JVM baseline;
          [reason] is ["overflow"] (bounded queue full) or
          ["no_devices"] (every device lost). *)
  | Serve_complete of {
      app : string;
      request : int;
      latency_minutes : float;  (** Arrival to completion. *)
      accelerated : bool;       (** [false] for JVM-fallback service. *)
    }
  | Serve_shed of {
      app : string;
      request : int;
      stage : string;
          (** ["enqueue"] (shed at admission) or ["dispatch"] (shed when
              its batch was about to launch). *)
      deadline_minutes : float;  (** The request's absolute deadline. *)
      estimate_minutes : float;
          (** Estimated completion that provoked the shed. *)
    }  (** Deadline-aware admission routed the request straight to the
           JVM path because the accelerator could not meet its
           deadline. Only emitted when SLO admission is active. *)
  | Serve_timeout of {
      app : string;
      device : int;
      size : int;
      waited_minutes : float;  (** Virtual minutes before cancellation. *)
    }  (** The watchdog cancelled a hung batch; its requests are
           re-dispatched. *)
  | Serve_hedge of {
      app : string;
      from_device : int;  (** The device running the primary attempt. *)
      to_device : int;    (** The idle device the hedge launched on. *)
      size : int;
    }  (** A timed-out batch was speculatively duplicated onto a second
           device; first result wins (lowest device index on ties). *)
  | Serve_breaker of { device : int; from_state : string; to_state : string }
      (** A circuit-breaker transition
          (["healthy"|"probation"|"quarantined"|"half_open"]). *)
  | Serve_deadline of {
      app : string;
      request : int;
      met : bool;
      slack_minutes : float;
          (** Deadline minus completion time (negative = missed). *)
    }  (** Deadline outcome for a request that carried one. Only
           emitted when the request had a deadline. *)
  | Fed_route of {
      app : string;
      request : int;
      region : int;       (** Origin region of the request. *)
      cluster : string;   (** Cluster the router chose. *)
      rtt_minutes : float;  (** One-way RTT penalty charged. *)
    }  (** A federation routing decision. Never emitted by a trivial
           (single-cluster, feature-free) federation, which stays
           byte-identical to plain [Fleet.serve]. *)
  | Fed_autoscale of {
      cluster : string;
      action : string;    (** ["lease"] or ["release"]. *)
      devices : int;      (** Leased devices after the action. *)
      queue_len : int;    (** The queue depth that triggered it. *)
    }  (** The federation autoscaler leased or released a device. *)
  | Fed_retune of {
      app : string;
      epoch : int;
      p99_minutes : float;  (** The breaching windowed p99. *)
      slo_minutes : float;
      tune_minutes : float; (** Virtual DSE minutes billed. *)
      evals : int;
    }  (** A tenant breached its p99 SLO at an epoch boundary and a
           bounded DSE re-tuning run was launched. *)
  | Fed_promote of { app : string; epoch : int; cfg : string }
      (** A re-tuned design was promoted into every member fleet at an
          epoch boundary. *)

type event = {
  e_seq : int;       (** Monotonic per tracer, gapless from 0. *)
  e_minutes : float; (** Virtual minutes of the emitting core/flow. *)
  e_kind : kind;
}

(** An event consumer. [on_flush] is called by {!flush} (end of run). *)
type sink = { on_event : event -> unit; on_flush : unit -> unit }

(** {1 The tracer} *)

type t

val create : ?sinks:sink list -> unit -> t
(** Sequence starts at 0, clock at 0.0, partition context at -1. *)

val set_clock : t -> float -> unit
(** Set the virtual minutes subsequent events are stamped with. Drivers
    call this with the active core's clock before handing control to
    instrumented code. *)

val set_partition : t -> int -> unit
(** Set the partition-id context lower layers (the tuner) stamp into
    their events; -1 means "outside any partition". *)

val partition : t -> int

val emitted : t -> int
(** Events emitted so far (the next sequence number). *)

val emit : t -> kind -> unit
(** Stamp with the current clock and next sequence number, and hand the
    event to every sink. *)

val flush : t -> unit

(** {1 Built-in sinks} *)

val collector : ?capacity:int -> unit -> sink * (unit -> event list)
(** In-memory ring: keeps the most recent [capacity] events (default
    65536); the thunk returns them oldest first. *)

val buffer_sink : Buffer.t -> sink
(** JSONL: appends one {!json_of_event} line per event. *)

val channel_sink : out_channel -> sink
(** JSONL to a channel; [on_flush] flushes the channel (does not close
    it). *)

val logs_sink : ?level:Logs.level -> unit -> sink
(** Human-readable lines through the [logs] library (source
    ["s2fa.telemetry"], default level [Debug]). Silent unless the
    application enables a reporter and the level — the default
    [Logs] state prints nothing. *)

val log_src : Logs.src

(** {1 Serialization} *)

(** The one JSON codec of the project. Every file the tree reads goes
    through it: traces ({!Trace.load}), span logs, and the DSE and
    fleet checkpoints ({!Checkpoint}), all one object per line. Trace
    events, span records and checkpoint lines are written through
    {!obj}. Its float contract: 17 significant digits, so a number read
    back is bit-identical, and non-finite values as the quoted strings
    ["inf"] / ["-inf"] / ["nan"].

    The parser is strict. Objects are flat: a nested object, duplicate
    keys, trailing commas, anything after the closing brace and number
    literals outside the double range are malformed, and {!get_int}
    rejects a non-integral number, or one a double does not hold
    exactly, instead of rounding it. Request ids stay below 2{^53},
    since a federation takes at most 8 192 regions. *)
module Json : sig
  val fstr : float -> string
  (** Bit-exact float literal (quoted string for non-finite values). *)

  val quote : string -> string
  (** JSON string literal with escaping. *)

  (** {2 Writing} *)

  (** A member's value. *)
  type field =
    | Str of string
    | Int of int
    | Num of float       (** Written with {!fstr}. *)
    | Bool of bool
    | Nums of float list (** An array, each element written with {!fstr}. *)

  val obj : (string * field) list -> string
  (** One object, members in list order, no whitespace and no trailing
      newline. *)

  (** {2 Reading} *)

  type v =
    | Jstr of string
    | Jnum of float
    | Jbool of bool
    | Jarr of float list  (** Arrays hold floats only. *)

  exception Bad
  (** Raised by the parser and getters on malformed input (never
      [Failure]). *)

  val parse_obj : string -> (string * v) list
  (** Parse one JSON object; members in source order. *)

  val find : (string * v) list -> string -> v option

  val get_float : (string * v) list -> string -> float
  (** Required float field; accepts the quoted non-finite encodings. *)

  val get_int : (string * v) list -> string -> int
  (** Required integral field of magnitude below 2{^53}, so that the
      double the parser holds is the integer written. *)

  val get_str : (string * v) list -> string -> string

  val get_bool : (string * v) list -> string -> bool

  val get_arr : (string * v) list -> string -> float list

  (** {2 Located reading}

      Every reader returns [Error "FILE:LINE: reason"] for bad input and
      [Error "FILE: reason"] when the file cannot be read; none raises. *)

  val bad_line : int -> ('a, unit, string, 'b) format4 -> 'a
  (** [bad_line n fmt ...] rejects line [n] with a formatted reason; the
      enclosing {!located} reports it. *)

  val parse_at : int -> string -> (string * v) list
  (** {!parse_obj} of line [n]; malformed JSON rejects the line. *)

  val get_at :
    int -> ((string * v) list -> string -> 'a) -> (string * v) list ->
    string -> 'a
  (** [get_at n get fields k] is [get fields k] for a field of line [n];
      a bad or missing value rejects the line, naming [k]. *)

  val located : file:string -> (unit -> 'a) -> ('a, string) result
  (** Run a reader; a rejected line becomes [Error "FILE:LINE: reason"]. *)

  val read_file : string -> (string, string) result
  (** The whole file; an I/O error (a missing file, a directory) becomes
      [Error "FILE: reason"]. *)

  val decode_lines :
    file:string -> string list -> (int -> (string * v) list -> 'a) ->
    ('a list, string) result
  (** JSONL: number the lines from 1, skip blank ones, parse each and
      pass [(line, fields)] to the decoder, which rejects with
      {!bad_line}; all under {!located}. *)

  val read_jsonl :
    string -> (int -> (string * v) list -> 'a) -> ('a list, string) result
  (** {!decode_lines} over the lines of a file (the one JSONL file
      reader). *)
end

(** {2 Events}

    One table in the implementation, [describe], gives each kind its
    wire tag (the ["ev"] member) and its fields in wire order;
    {!json_of_event} and {!pp_event} fold over it, and
    {!event_of_fields} is its inverse. A new kind takes one [describe]
    arm and one [event_of_fields] case. *)

val json_of_event : event -> string
(** [{"seq":..,"min":..,"ev":TAG,FIELDS..}] through {!Json.obj}: one
    object, no trailing newline, parsed back bit-identically. *)

val event_of_fields : (string * Json.v) list -> event option
(** Decode a parsed trace line; [None] unless it is an event. *)

val event_of_json : string -> event option
(** Inverse of {!json_of_event}; [None] on anything malformed. *)

val pp_event : Format.formatter -> event -> unit
(** The logs sink's line: [[SEQ] MINm TAG KEY=VALUE ...], the fields in
    wire order, floats with six significant digits ([%g]) and every
    other value as {!Json.obj} writes it. *)
