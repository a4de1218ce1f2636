(** Checkpoint files, one discipline for the DSE ([Driver]) and the
    serving fleet ([Fleet]).

    {b Format.} JSONL through {!Telemetry.Json}. Every line is an object
    whose ["ck"] member names its kind. The first line is the header
    (its kind tells the owners apart: ["header"] for a DSE snapshot,
    ["fleet"] for a fleet one), the meta lines
    [{"ck":"meta","k":K,"v":V}] follow it, then the owner's body lines,
    and the last line is the end marker [{"ck":"end","lines":N}], where
    [N] counts every line before it. The owner describes its header and
    body lines; this module encodes every line.

    {b Atomic write.} {!write} writes [PATH.tmp] and renames it over
    [PATH], so a crash mid-write leaves the previous snapshot intact.

    {b Truncation guard.} {!read} rejects a file whose last line is not
    the end marker or whose line count disagrees with it: a cut file, a
    deleted or duplicated line. Every rejection reads
    ["FILE:LINE: reason"] (["FILE: reason"] when the file cannot be
    read).

    {b Verdicts.} Resume is replay-based: the owner re-runs the recorded
    configuration and, when the replay reaches the snapshot's trigger (a
    virtual minute, an event count), regenerates the snapshot's lines.
    A {!replay} compares them with the stored ones and gives one of
    three verdicts: validated; diverged, naming the first line that
    differs; or never reached, when the replay ended before the
    trigger. *)

type line = string * (string * Telemetry.Json.field) list
(** A line to write: its ["ck"] kind and the members that follow it. *)

val frame : header:line -> meta:(string * string) list -> line list ->
  string list
(** [frame ~header ~meta body] encodes the header line, one line per
    meta pair, the body lines and the end marker, each through
    {!Telemetry.Json.obj}. *)

val write : string -> string list -> unit
(** [write path lines] replaces [path] atomically (temp file, then
    rename); one line per element. *)

(** A structurally valid checkpoint. *)
type t = {
  c_file : string;          (** Where it was read from. *)
  c_kind : string;          (** The header's ["ck"]. *)
  c_header : int * (string * Telemetry.Json.v) list;  (** Line and fields. *)
  c_meta : (string * string) list;  (** In file order. *)
  c_body : (int * (string * Telemetry.Json.v) list) list;
      (** The other lines between the header and the end marker, with
          their line numbers. *)
  c_lines : string list;    (** Every non-blank line, marker included. *)
}

val read : kinds:string list -> string -> (t, string) result
(** Read and check a checkpoint file: the end marker, its line count,
    a header of one of [kinds] first, well-formed meta lines. *)

val of_lines : kinds:string list -> file:string -> string list ->
  (t, string) result
(** {!read} over lines already in memory; errors name [file]. *)

(** A resume check in progress. *)
type replay

val replay : file:string -> at:string -> string list -> replay
(** [replay ~file ~at lines]: the stored [lines] of the snapshot in
    [file], whose trigger [at] (e.g. ["40.0 virtual minutes"]) the
    messages quote. *)

val reached : replay -> string list -> unit
(** The replay crossed the trigger and regenerated these lines. The
    first call decides; later ones are ignored. *)

val verdict : replay -> (unit, string) result
(** [Ok ()] when validated. Otherwise
    ["FILE:N: resume diverged from the checkpoint at AT: ..."], [N] the
    first line that differs, or
    ["FILE:1: resume never reached the checkpoint at AT ..."], line 1
    being the header that holds the trigger. *)
