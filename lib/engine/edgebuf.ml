(* Flat int-packed edge buffer (ISSUE 10).

   Edges live in a [Bigarray] of native ints as fixed-width 4-word records

     src | dst | label-code | encoding-ref

   in insertion order, so the hot join loop touches contiguous unboxed
   memory instead of chasing list spines and boxed records.  Path encodings
   are interned in a side pool keyed by their canonical [Encoding] wire
   bytes: the encoding-ref field is an index into the pool, two edges with
   structurally equal encodings share one pool slot, and decoding back to
   the structured [Encoding.t] happens lazily, once per distinct encoding.

   The buffer is also the unit of I/O: [Storage] serializes the edge words
   and the pool directly from/to this representation, so the bytes on disk
   are the bytes in memory modulo fixed-width framing.

   Two flat indexes ride on a buffer, both int arrays holding edge positions:
   [Set] answers "is this (src, dst, label, encoding) already here" and "how
   many encodings does this (src, dst, label) have", and [Adj] chains the
   positions of each vertex's out-edges (by src) and in-edges (by dst) in
   insertion order. *)

module Encoding = Pathenc.Encoding

type t = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable n : int;  (* edges *)
  mutable pool : string array;            (* enc id -> canonical wire bytes *)
  mutable decoded : Encoding.t option array;  (* enc id -> lazy decode *)
  mutable canon : int array;  (* enc id -> first id with the same bytes *)
  mutable pool_n : int;
  pool_tbl : (string, int) Hashtbl.t;     (* wire bytes -> enc id *)
}

let stride = 4

let alloc words =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max words stride)

let create ?(capacity = 256) () =
  { data = alloc (capacity * stride);
    n = 0;
    pool = Array.make 64 "";
    decoded = Array.make 64 None;
    canon = Array.make 64 0;
    pool_n = 0;
    pool_tbl = Hashtbl.create 64 }

let n t = t.n
let pool_size t = t.pool_n

let src t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 0)
let dst t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 1)
let label t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 2)
let enc_id t i = Bigarray.Array1.unsafe_get t.data ((i * stride) + 3)

let enc_bytes t id = t.pool.(id)

(* Canonical representative of a pool slot: the first slot holding the same
   bytes.  Slots made by [intern_bytes] are their own canon; [pool_append]
   (file loading) may create byte-equal duplicates, which all map to the
   first occurrence.  Keying membership sets by [canon] therefore makes
   "same (src, dst, label, encoding)" a pure int comparison. *)
let canon t id = t.canon.(id)

(* The interned id the given wire bytes would resolve to, without
   interning: [None] means the bytes occur nowhere in this buffer's pool. *)
let find_bytes t (bytes : string) : int option = Hashtbl.find_opt t.pool_tbl bytes

(* Decode an interned encoding, caching the structured value per pool slot
   so each distinct encoding is decoded at most once per buffer. *)
let enc t id =
  match t.decoded.(id) with
  | Some e -> e
  | None ->
      let e = Encoding.of_bytes t.pool.(id) in
      t.decoded.(id) <- Some e;
      e

(* Drop every cached decode; [enc] re-decodes on demand.  A partition kept
   in memory between its pairs sheds this cache, which can outweigh the
   wire bytes it was decoded from. *)
let forget_decoded t = Array.fill t.decoded 0 t.pool_n None

let grow_pool t =
  let cap = Array.length t.pool in
  let pool' = Array.make (2 * cap) "" in
  Array.blit t.pool 0 pool' 0 cap;
  t.pool <- pool';
  let dec' = Array.make (2 * cap) None in
  Array.blit t.decoded 0 dec' 0 cap;
  t.decoded <- dec';
  let can' = Array.make (2 * cap) 0 in
  Array.blit t.canon 0 can' 0 cap;
  t.canon <- can'

(* Intern canonical wire bytes; [?decoded] primes the decode cache when the
   caller already holds the structured value. *)
let intern_bytes ?decoded t (bytes : string) : int =
  match Hashtbl.find_opt t.pool_tbl bytes with
  | Some id ->
      (match (decoded, t.decoded.(id)) with
      | Some e, None -> t.decoded.(id) <- Some e
      | _ -> ());
      id
  | None ->
      let id = t.pool_n in
      if id = Array.length t.pool then grow_pool t;
      t.pool.(id) <- bytes;
      t.decoded.(id) <- decoded;
      t.canon.(id) <- id;
      t.pool_n <- id + 1;
      Hashtbl.replace t.pool_tbl bytes id;
      id

let intern t (e : Encoding.t) : int =
  intern_bytes ~decoded:e t (Encoding.to_bytes e)

(* Append raw pool bytes *without* dedup, so ids always equal file order:
   used by [Storage.read_flat], whose writer deduplicates anyway.  A
   crafted file with duplicate pool entries still round-trips, because
   every edge keeps the id it was written with. *)
let pool_append t (bytes : string) : int =
  let id = t.pool_n in
  if id = Array.length t.pool then grow_pool t;
  t.pool.(id) <- bytes;
  t.decoded.(id) <- None;
  t.pool_n <- id + 1;
  (match Hashtbl.find_opt t.pool_tbl bytes with
  | Some first -> t.canon.(id) <- first
  | None ->
      t.canon.(id) <- id;
      Hashtbl.replace t.pool_tbl bytes id);
  id

let push t ~src ~dst ~label ~enc_id =
  let need = (t.n + 1) * stride in
  if need > Bigarray.Array1.dim t.data then begin
    let data' = alloc (2 * Bigarray.Array1.dim t.data) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub data' 0 (Bigarray.Array1.dim t.data));
    t.data <- data'
  end;
  let base = t.n * stride in
  Bigarray.Array1.unsafe_set t.data (base + 0) src;
  Bigarray.Array1.unsafe_set t.data (base + 1) dst;
  Bigarray.Array1.unsafe_set t.data (base + 2) label;
  Bigarray.Array1.unsafe_set t.data (base + 3) enc_id;
  t.n <- t.n + 1

(* Convenience push for callers holding a structured encoding. *)
let push_edge t ~src ~dst ~label (e : Encoding.t) =
  push t ~src ~dst ~label ~enc_id:(intern t e)

let iter t f =
  for i = 0 to t.n - 1 do
    f ~src:(src t i) ~dst:(dst t i) ~label:(label t i) ~enc_id:(enc_id t i)
  done

(* ---------------- the edge set ---------------- *)

(* The open-addressed tables below probe linearly over a power-of-two slot
   count and are kept at most three quarters full: fuller tables probe
   longer, emptier ones cost memory on every load (half full measured 2-4%
   more peak RSS, and no speed gain). *)
let[@inline] overfull ~entries ~slots = 4 * entries > 3 * slots

(* Slot count of a table for [n] entries: a power of two, at least 16. *)
let table_size n =
  let cap = ref 16 in
  while overfull ~entries:n ~slots:!cap do cap := 2 * !cap done;
  !cap

(* Tables of edge positions.  A slot stores only a position; its key is
   read back from the buffer, so a probe is a handful of int compares and
   nothing is boxed.  [slots] is keyed by (src, dst, label, canon enc) —
   the edge's identity — and [kslots] by (src, dst, label), with the number
   of distinct encodings of that key in [kcount]. *)
module Set = struct
  type buf = t

  type t = {
    b : buf;
    mutable slots : int array;   (* edge position, or -1 *)
    mutable kslots : int array;  (* a position with this (src, dst, label) *)
    mutable kcount : int array;  (* encodings kept per [kslots] entry *)
    mutable n : int;             (* edges in the set *)
  }

  (* Keys are folded into one int by multiply-add, then scrambled so the
     low bits that pick a slot depend on every bit of every field (the
     finalizer of MurmurHash3, with constants cut to OCaml's 63-bit ints). *)
  let[@inline] fmix h =
    let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
    let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
    h lxor (h lsr 33)

  let[@inline] combine h x = (h * 0x100000001b3) + x

  (* Both hashes are exposed so tests can build colliding keys. *)
  let[@inline] key_hash ~src ~dst ~label =
    fmix (combine (combine src dst) label)

  let[@inline] hash ~src ~dst ~label ~cid =
    fmix (combine (combine (combine src dst) label) cid)

  let create ?(capacity = 0) b =
    let cap = table_size capacity in
    { b; slots = Array.make cap (-1); kslots = Array.make cap (-1);
      kcount = Array.make cap 0; n = 0 }

  let size st = st.n
  let capacity st = Array.length st.slots

  let[@inline] cid_at b p = canon b (enc_id b p)

  (* The slot holding the edge (src, dst, label, cid), or the empty slot
     where it would go. *)
  let find st ~src:s ~dst:d ~label:l ~cid:c =
    let b = st.b in
    let mask = Array.length st.slots - 1 in
    let i = ref (hash ~src:s ~dst:d ~label:l ~cid:c land mask) in
    let p = ref (Array.unsafe_get st.slots !i) in
    while
      !p >= 0
      && not (src b !p = s && dst b !p = d && label b !p = l && cid_at b !p = c)
    do
      i := (!i + 1) land mask;
      p := Array.unsafe_get st.slots !i
    done;
    !i

  (* The same over (src, dst, label) in [kslots]. *)
  let find_key st ~src:s ~dst:d ~label:l =
    let b = st.b in
    let mask = Array.length st.kslots - 1 in
    let i = ref (key_hash ~src:s ~dst:d ~label:l land mask) in
    let p = ref (Array.unsafe_get st.kslots !i) in
    while !p >= 0 && not (src b !p = s && dst b !p = d && label b !p = l) do
      i := (!i + 1) land mask;
      p := Array.unsafe_get st.kslots !i
    done;
    !i

  let mem st ~src ~dst ~label ~cid =
    st.slots.(find st ~src ~dst ~label ~cid) >= 0

  (* Membership by wire bytes: bytes nowhere in the pool are certainly a new
     edge, so only known bytes cost a probe. *)
  let mem_bytes st ~src ~dst ~label bytes =
    match find_bytes st.b bytes with
    | Some cid -> mem st ~src ~dst ~label ~cid
    | None -> false

  let count st ~src ~dst ~label =
    let k = find_key st ~src ~dst ~label in
    if st.kslots.(k) < 0 then 0 else st.kcount.(k)

  let grow st =
    let b = st.b in
    let cap = 2 * Array.length st.slots in
    let mask = cap - 1 in
    let slots = Array.make cap (-1) in
    Array.iter
      (fun p ->
        if p >= 0 then begin
          let i =
            ref (hash ~src:(src b p) ~dst:(dst b p) ~label:(label b p)
                   ~cid:(cid_at b p) land mask)
          in
          while slots.(!i) >= 0 do i := (!i + 1) land mask done;
          slots.(!i) <- p
        end)
      st.slots;
    let kslots = Array.make cap (-1) and kcount = Array.make cap 0 in
    Array.iteri
      (fun k p ->
        if p >= 0 then begin
          let i =
            ref (key_hash ~src:(src b p) ~dst:(dst b p) ~label:(label b p)
                 land mask)
          in
          while kslots.(!i) >= 0 do i := (!i + 1) land mask done;
          kslots.(!i) <- p;
          kcount.(!i) <- st.kcount.(k)
        end)
      st.kslots;
    st.slots <- slots;
    st.kslots <- kslots;
    st.kcount <- kcount

  (* Fill the empty slot [i] with position [p], whose key is
     (src, dst, label). *)
  let fill st i p ~src ~dst ~label =
    st.slots.(i) <- p;
    st.n <- st.n + 1;
    let k = find_key st ~src ~dst ~label in
    if st.kslots.(k) < 0 then begin
      st.kslots.(k) <- p;
      st.kcount.(k) <- 1
    end
    else st.kcount.(k) <- st.kcount.(k) + 1;
    (* keys never outnumber edges, so one load factor bounds both tables *)
    if overfull ~entries:st.n ~slots:(Array.length st.slots) then grow st

  (* Add the edge at buffer position [p]; false, changing nothing, when an
     equal edge is already in the set. *)
  let add st p =
    let b = st.b in
    let src = src b p and dst = dst b p and label = label b p in
    let i = find st ~src ~dst ~label ~cid:(cid_at b p) in
    st.slots.(i) < 0
    && begin
         fill st i p ~src ~dst ~label;
         true
       end

  (* Append an edge to the buffer unless an equal one is in the set; true
     if it was appended.  [enc_id] must be canonical ([intern_bytes]). *)
  let push st ~src ~dst ~label ~enc_id =
    let i = find st ~src ~dst ~label ~cid:enc_id in
    st.slots.(i) < 0
    && begin
         push st.b ~src ~dst ~label ~enc_id;
         fill st i (n st.b - 1) ~src ~dst ~label;
         true
       end

  (* A set over every edge of [b]; [size] falls short of [n b] exactly when
     [b] holds duplicate records. *)
  let of_buf (b : buf) =
    let st = create ~capacity:(n b) b in
    for p = 0 to n b - 1 do ignore (add st p) done;
    st
end

(* ---------------- insertion-ordered adjacency ---------------- *)

(* Per vertex, the positions of its out-edges (by src) and in-edges (by dst)
   as chains in insertion order: a head and a tail per vertex, and a [next]
   link per position.  Positions only grow, so every chain ascends, and a
   walk bounded by [upto] sees exactly the edges that existed at [upto] —
   whatever is appended while it runs.  Src heads are a dense array over
   the partition's vertex range [lo, hi); dst vertices range over the whole
   graph, so their heads live in an open-addressed table instead. *)
module Adj = struct
  type buf = t

  type t = {
    b : buf;
    lo : int;
    src_first : int array;  (* v - lo -> first position, or -1 *)
    src_last : int array;
    mutable src_next : int array;  (* position -> next, or -1 *)
    mutable dkeys : int array;     (* dst vertex, or -1 *)
    mutable dfirst : int array;
    mutable dlast : int array;
    mutable dn : int;              (* dst vertices with a chain *)
    mutable dst_next : int array;
    mutable chained : int;         (* positions [0, chained) are linked *)
  }

  let dslot a v =
    let mask = Array.length a.dkeys - 1 in
    let i = ref (Set.fmix v land mask) in
    while a.dkeys.(!i) >= 0 && a.dkeys.(!i) <> v do
      i := (!i + 1) land mask
    done;
    !i

  let grow_dst a =
    let cap = 2 * Array.length a.dkeys in
    let old_keys = a.dkeys and old_first = a.dfirst and old_last = a.dlast in
    a.dkeys <- Array.make cap (-1);
    a.dfirst <- Array.make cap (-1);
    a.dlast <- Array.make cap (-1);
    Array.iteri
      (fun k v ->
        if v >= 0 then begin
          let i = dslot a v in
          a.dkeys.(i) <- v;
          a.dfirst.(i) <- old_first.(k);
          a.dlast.(i) <- old_last.(k)
        end)
      old_keys

  let grow_links a need =
    let cap = Array.length a.src_next in
    if need > cap then begin
      let cap' = max need (2 * cap) in
      let extend arr =
        let arr' = Array.make cap' (-1) in
        Array.blit arr 0 arr' 0 cap;
        arr'
      in
      a.src_next <- extend a.src_next;
      a.dst_next <- extend a.dst_next
    end

  (* Link every position appended to the buffer since the last call.  An
     edge whose src lies outside [lo, hi) gets no src link: no src walk
     of this partition asks for such a vertex. *)
  let sync a =
    let b = a.b in
    grow_links a b.n;
    for p = a.chained to b.n - 1 do
      let s = src b p - a.lo in
      if s >= 0 && s < Array.length a.src_first then begin
        if a.src_first.(s) < 0 then a.src_first.(s) <- p
        else a.src_next.(a.src_last.(s)) <- p;
        a.src_last.(s) <- p
      end;
      let v = dst b p in
      let i = dslot a v in
      if a.dkeys.(i) < 0 then begin
        a.dkeys.(i) <- v;
        a.dfirst.(i) <- p;
        a.dn <- a.dn + 1
      end
      else a.dst_next.(a.dlast.(i)) <- p;
      a.dlast.(i) <- p;
      if overfull ~entries:a.dn ~slots:(Array.length a.dkeys) then grow_dst a
    done;
    a.chained <- b.n

  (* Chains over every edge of [b], whose src vertices lie in [lo, hi). *)
  let create b ~lo ~hi =
    let cap = table_size b.n in
    let a =
      { b; lo;
        src_first = Array.make (max 0 (hi - lo)) (-1);
        src_last = Array.make (max 0 (hi - lo)) (-1);
        src_next = Array.make (max 16 b.n) (-1);
        dkeys = Array.make cap (-1);
        dfirst = Array.make cap (-1);
        dlast = Array.make cap (-1);
        dn = 0;
        dst_next = Array.make (max 16 b.n) (-1);
        chained = 0 }
    in
    sync a;
    a

  (* [f] on every position below [upto] whose src is [v], ascending.  The
     link array is re-read per step: [f] may append, and grow it. *)
  let iter_src a v ~upto f =
    let s = v - a.lo in
    if s >= 0 && s < Array.length a.src_first then begin
      let p = ref a.src_first.(s) in
      while !p >= 0 && !p < upto do
        f !p;
        p := a.src_next.(!p)
      done
    end

  (* [f] on every position below [upto] whose dst is [v], ascending. *)
  let iter_dst a v ~upto f =
    let i = dslot a v in
    if a.dkeys.(i) = v then begin
      let p = ref a.dfirst.(i) in
      while !p >= 0 && !p < upto do
        f !p;
        p := a.dst_next.(!p)
      done
    end
end
