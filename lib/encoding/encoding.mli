(** Interval-based path encodings (paper, Sections 3 and 4.2).

    A path through the ICFET is encoded as a sequence of elements: intervals
    of CFET node ids within one method, separated by call/return edge ids.
    Program-graph edges carry such a sequence instead of a boolean formula;
    the sequence is decoded against the in-memory ICFET only when a
    constraint must be solved (see {!Symexec.Icfet.constraint_of}). *)

type element =
  | Interval of { meth : int; first : int; last : int }
      (** CFET node-id interval [first, last] inside method [meth];
          [first] is an ancestor of [last] in the method's CFET. *)
  | Call of int  (** ICFET call-edge id: an unmatched "(_i". *)
  | Ret of int   (** ICFET return-edge id: an unmatched ")_i". *)
  | Rev of element list
      (** The wrapped forward path traversed backwards (flowsToBar edges):
          same constraints, swapped endpoints, opaque to interval fusion. *)
  | Aux of element list
      (** Constraint-only fragment: a path whose feasibility must hold
          together with this one (e.g. the value flow that makes an event's
          receiver alias the tracked object); contributes no endpoints. *)

type t = element list

val empty : t

(** {1 Constructors} *)

val interval : meth:int -> first:int -> last:int -> t
val call : int -> t
val ret : int -> t

val rev : t -> t
(** The reversed-path wrapper used by mirror (flowsToBar) edges. *)

val aux : t -> t

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val pp_element : Format.formatter -> element -> unit
val to_string : t -> string

(** {1 Endpoints} *)

val entry_point : t -> (int * int) option
(** CFET (method, node) the path starts at, when statically determinable. *)

val exit_point : t -> (int * int) option
(** CFET (method, node) the path ends at, when statically determinable. *)

(** {1 Composition (the four cases of Section 4.2)} *)

exception Incomposable
(** Raised by {!compose} when the junction endpoints of the two paths are
    both known and disagree; the engine treats it as "no transitive edge". *)

val compose : t -> t -> t
(** Concatenate two consecutive paths, fusing adjacent forward intervals in
    the same method (case 1); call/return elements concatenate (cases 2/4). *)

val normalize : t -> t
(** Cancel matched call/return pairs together with the completed callee
    interval between them (case 3).  Idempotent. *)

val compose_normalized : t -> t -> t
(** [normalize (compose x y)] — what the engine stores on transitive
    edges. *)

val pending_calls : t -> int list
(** Unmatched call-site ids, outermost first: the calling context the
    encoding is suspended in. *)

val n_elements : t -> int
(** Total element count including nested [Rev]/[Aux] contents; used by the
    engine's path-length cap. *)

val length : t -> int

(** {1 Wire format}

    Varint-based binary layout used by the on-disk edge partitions. *)

val add_varint : Buffer.t -> int -> unit
val read_varint : Bytes.t -> int ref -> int
val write : Buffer.t -> t -> unit
val read : Bytes.t -> int ref -> t
val to_bytes : t -> string
val of_bytes : string -> t

val rev_bytes : string -> string
(** [rev_bytes (to_bytes t) = to_bytes (rev t)], without decoding. *)
