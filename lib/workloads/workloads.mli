module Rng = S2fa_util.Rng
module Interp = S2fa_jvm.Interp
module Space = S2fa_tuner.Space
module Dspace = S2fa_dse.Dspace

(** The eight evaluation kernels of the paper (Table 2 / Fig. 3 / Fig. 4),
    written in MiniScala, with input generators, broadcast-field
    generators and the hand-tuned "manual design" configurations used as
    the expert reference in Fig. 4. *)

type t = {
  w_name : string;          (** Short name, e.g. "S-W". *)
  w_kind : string;          (** Category as printed in Table 2. *)
  w_source : string;        (** MiniScala source of the kernel class. *)
  w_in_caps : int list;     (** Capacities of array input components. *)
  w_out_caps : int list;
  w_field_caps : (string * int) list;
  w_fields : Rng.t -> (string * Interp.value) list;
  w_gen : Rng.t -> int -> Interp.value array;
      (** [w_gen rng n] draws [n] input tasks. *)
  w_manual : Dspace.t -> Space.cfg;
      (** Expert design point for the identified space. *)
  w_manual_ii : float option;
      (** Initiation interval the hand-written HLS achieves when it
          restructures the computation beyond Merlin's reach (the LR
          manual design pipelines the regression update in stages). *)
  w_tasks : int;            (** Task count for functional runs. *)
}

val all : t list
(** PR, KMeans, KNN, LR, SVM, LLS, AES, S-W — evaluation order of the
    paper's tables. *)

val find : string -> t option

val compile : t -> S2fa_core.S2fa.compiled
(** {!S2fa_core.S2fa.compile} with the workload's buffer and field
    capacities. *)

(** Helpers for building JVM values (shared with tests). *)

val darr : float array -> Interp.value
val iarr : int array -> Interp.value
val str : string -> Interp.value
val random_string : Rng.t -> int -> Interp.value

val manual_design : t -> S2fa_core.S2fa.compiled -> Space.cfg
(** The expert reference design of Fig. 4: a deterministic sweep over
    the structured configurations an HLS expert would try (flatten or
    pipeline the reduction loops, parallelize the middle loops, tile the
    task loop for bursts, widen the interfaces), keeping the best
    feasible one. [w_manual] supplies one extra candidate. *)
