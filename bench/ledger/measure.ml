(* Host-side measurement shared by every workload: a monotonic clock,
   named accumulators for per-layer seconds and counts, order
   statistics over samples, and the interface a workload implements. *)

let seconds_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, seconds_since t0)

(* ---------- named accumulators ---------- *)

type laps = (string, float ref) Hashtbl.t

let laps () : laps = Hashtbl.create 16

let add (l : laps) name v =
  match Hashtbl.find_opt l name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add l name (ref v)

let lap l name f =
  let r, dt = time f in
  add l name dt;
  r

let get (l : laps) name =
  match Hashtbl.find_opt l name with Some r -> !r | None -> 0.0

(* ---------- order statistics ---------- *)

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  tail : (float * float) option;
      (** [(p, value)]: the highest of a fixed set of percentiles that
          still has at least ten samples above it. *)
  samples : float array;  (** In measurement order. *)
}

(* The quartiles Python's [statistics.quantiles(xs, n=4)] returns (its
   default "exclusive" method), so spreads computed here and by a
   script over the printed values agree. *)
let quartiles sorted =
  let ld = Array.length sorted in
  if ld < 2 then
    let v = if ld = 1 then sorted.(0) else 0.0 in
    (v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((sorted.(j - 1) *. float_of_int (4 - delta))
      +. (sorted.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let tail_percentiles = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let summarize samples =
  let n = Array.length samples in
  let sorted = S2fa_util.Stats.sorted samples in
  let q1, q3 = quartiles sorted in
  let tail =
    List.find_map
      (fun p ->
        if float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 then
          Some (p, S2fa_util.Stats.percentile_sorted sorted p)
        else None)
      tail_percentiles
  in
  { n; median = S2fa_util.Stats.median samples; q1; q3; tail; samples }

(* ---------- the workload interface ---------- *)

(** One timed unit of a workload (a DSE pass, a serving rep, a proof
    sweep). *)
type outcome = {
  ops : int;             (** Operations attempted: runs, requests, proofs. *)
  failed : int;          (** Operations whose output check failed. *)
  seconds : float;       (** Host seconds spent inside the program's calls. *)
  op_seconds : float array;
      (** Host seconds per operation, where one operation is one call. *)
  exact : (string * float) list;
      (** Deterministic metrics: identical across units of one seed. *)
  digest : string;       (** Hash of the program's reports for the unit. *)
}

type instance = {
  unit_ : unit -> outcome;
  traced : untraced_s:float -> outcome * (string * float) list;
      (** The same unit with a telemetry sink attached, followed by the
          replays that split its host time into layers. [untraced_s] is
          the untraced median, for the layers defined as a remainder. *)
}

type workload = {
  name : string;
  units : int;           (** Timed units when no [--seconds] is given. *)
  setup : seed:int -> smoke:bool -> laps -> instance;
      (** Builds every input from the seed; laps the per-layer parts of
          set-up (compile, traffic, transforms) into the accumulator. *)
}

let digest_of_buffer b = Digest.to_hex (Digest.string (Buffer.contents b))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
