(** An indexed binary min-heap with stable external handles.

    The discrete-event cores (the fleet simulator's event loop, the DSE
    driver's free-core selection) need a priority queue whose entries
    can be re-keyed or withdrawn in place: a busy device's next event
    time moves when a watchdog is disarmed, a core disappears when a
    fault kills it. Each {!insert} returns a {!handle} that names its
    entry for the rest of that entry's life, so callers keep an O(1)
    side table from domain object to heap slot and never search.

    Determinism contract: the heap imposes {e no} order of its own.
    [cmp] must be a total order on the keys actually used (callers
    append a tie-breaking index to the key for exactly this reason);
    given a total order, {!pop} returns the unique minimum, so a
    heap-backed event loop replays byte-identically from run to run.
    {!fold}/{!to_list} expose internal (heap-layout) order — that
    order is a deterministic function of the operation history, but
    callers that render it must sort by key first.

    All operations are O(log n) except {!peek}, {!length}, {!mem},
    {!key} and {!value}, which are O(1). Not thread-safe. *)

type ('k, 'v) t
type ('k, 'v) handle

val create : ?cmp:('k -> 'k -> int) -> unit -> ('k, 'v) t
(** Fresh empty heap. [cmp] defaults to the polymorphic
    [Stdlib.compare]; it must be a total order over every key the
    caller will insert. *)

val length : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val insert : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) handle
(** Add an entry and return its handle. The handle stays valid until
    the entry leaves the heap via {!pop} or {!remove}. *)

val peek : ('k, 'v) t -> ('k * 'v) option
(** The minimum entry, without removing it. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the minimum entry. Its handle goes dead. *)

val update : ('k, 'v) t -> ('k, 'v) handle -> 'k -> unit
(** Re-key a live entry, moving it up {e or} down as needed (the fleet
    watchdog both advances and retards device event times). Raises
    [Invalid_argument] on a dead handle. *)

val decrease_key : ('k, 'v) t -> ('k, 'v) handle -> 'k -> unit
(** {!update} restricted to keys that do not increase; raises
    [Invalid_argument] if the new key orders after the current one. *)

val remove : ('k, 'v) t -> ('k, 'v) handle -> unit
(** Withdraw a live entry; its handle goes dead. Raises
    [Invalid_argument] on a dead handle. *)

val mem : ('k, 'v) handle -> bool
(** Whether the handle's entry is still in its heap. *)

val key : ('k, 'v) handle -> 'k
(** The entry's current key (the last one set, even after removal). *)

val value : ('k, 'v) handle -> 'v

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a
(** Fold over live entries in internal heap order (see the determinism
    note above). *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Live entries in internal heap order. *)
