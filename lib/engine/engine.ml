(* Grapple's single-machine, disk-based graph engine (§4.3).

   The engine performs constraint-guided dynamic transitive closure: the
   input graph is partitioned by source-vertex intervals into on-disk edge
   partitions; each scheduling step loads a pair of partitions, joins every
   pair of consecutive edges whose labels compose under the client grammar
   and whose conjoined path constraint is satisfiable, and flushes new edges
   to the partitions owning their source vertices.  Oversized partitions are
   split eagerly so that any two partitions fit in the memory budget.
   Constraint results are memoized in an LRU cache keyed by path encoding.

   Loaded partitions are flat int-packed edge buffers ([Edgebuf]): 4-word
   records over a [Bigarray], with path encodings interned in a side pool.
   Membership is one open-addressed int table of edge positions
   ([Edgebuf.Set]) and adjacency is per-vertex position chains in insertion
   order ([Edgebuf.Adj]); both are built once per load and appended to on
   insert, so no index is ever sorted or merged.
   The join runs semi-naively: per superstep, only the edges appended since
   the previous superstep (the delta) are joined against the partitions'
   chains, so settled edges are never re-paired.
   The same scheme extends across pairs — the checkpoint manifest records
   each partition's deduplicated edge count at every pair's last local
   fixpoint, and reprocessing a pair starts its delta there (valid because
   partition files only grow by appending behind that prefix).

   Partitions stay in memory between pairs while their edges fit the
   budget the partitioning already grants (any two partitions fit:
   2 x [max_edges_per_partition] edges), least recently used first out.
   Only the current pair keeps its set and chains; the others are parked
   as bare buffers, rebuilt into a pair without touching the disk.  The
   checkpoint after each pair appends one journal record to the manifest
   instead of rewriting it.

   The engine is a functor over the label logic, instantiated once with the
   pointer-analysis grammar (phase 1) and once with the dataflow grammar
   (phase 2). *)

module Metrics = Metrics
module Lru = Lru
module Storage = Storage
module Edgebuf = Edgebuf
module Faults = Faults
module Manifest = Manifest
module Domains = Domains
module Interrupt = Interrupt
module Shardproc = Shardproc
module Supervisor = Supervisor
module Encoding = Pathenc.Encoding
module Formula = Smt.Formula
module Solver = Smt.Solver

module type LABEL_LOGIC = sig
  type t

  val equal : t -> t -> bool
  val to_int : t -> int
  val of_int : int -> t
  val compose : t -> t -> t option

  val compose_code : int -> int -> int
  (** [compose] on the dense integer codes, allocation-free for the
      int-packed join loop; [-1] means "no production".  Must agree with
      [compose] through [to_int]/[of_int]. *)

  val unary : t -> t list
  val mirror : t -> t option
  val is_result : t -> bool
  val pp : Format.formatter -> t -> unit
end

type config = {
  workdir : string;
  max_edges_per_partition : int;  (* memory budget, expressed in edges *)
  target_partitions : int;        (* initial partitioning *)
  cache_capacity : int;
  cache_enabled : bool;
  feasibility_enabled : bool;
      (* false turns off path sensitivity: every composition succeeds *)
  max_path_elements : int;
      (* compositions whose encodings exceed this many elements are dropped,
         bounding closure over recursive clone groups; 0 = unlimited *)
  max_encodings_per_key : int;
      (* distinct path encodings kept per (src, dst, label); further feasible
         paths between the same endpoints with the same label are witnesses
         of the same fact and are dropped; 0 = unlimited *)
  max_retries : int;
      (* transient storage faults absorbed per operation before the failure
         propagates to the caller *)
  retry_base_ms : float;  (* base delay of the exponential backoff *)
  retry_seed : int;       (* seed of the deterministic backoff jitter *)
  edge_budget : int;
      (* abort with [Budget_exhausted] once this many transitive edges have
         been added; 0 = unlimited *)
  wall_budget_s : float;
      (* abort with [Budget_exhausted] after this much wall-clock time in
         [run]; 0 = unlimited *)
}

(* A budget abort.  State on disk stays consistent (the last checkpoint is
   durable), so the caller may retry with [run ~resume:true], extend the
   budget, or degrade the instance. *)
exception Budget_exhausted of string

(* A cooperative interrupt (SIGINT/SIGTERM, or the shard supervisor shutting
   down).  Raised from the same poll points as budget aborts, so the last
   checkpoint manifest is durable and the run is resumable. *)
exception Interrupted = Interrupt.Interrupted

(* mkdir -p *)
let rec ensure_dir dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let default_config ~workdir =
  { workdir;
    max_edges_per_partition = 200_000;
    target_partitions = 4;
    cache_capacity = 65_536;
    cache_enabled = true;
    feasibility_enabled = true;
    max_path_elements = 64;
    max_encodings_per_key = 8;
    max_retries = 3;
    retry_base_ms = 2.;
    retry_seed = 0x6a09;
    edge_budget = 0;
    wall_budget_s = 0. }

module Make (L : LABEL_LOGIC) = struct
  type edge = { src : int; dst : int; label : L.t; enc : Encoding.t }
  (* the boxed view, used at the API boundary (seeds, results, consequence
     expansion); the join loop itself works on int-packed [Edgebuf] records *)

  type pmeta = {
    pid : int;
    lo : int;
    hi : int;  (* owns source vertices in [lo, hi) *)
    path : string;
    mutable version : int;
    mutable approx_edges : int;  (* includes not-yet-deduplicated appends *)
  }

  (* A loaded partition.  [buf] holds the deduplicated edges in file order
     (load order, then insertions).  [set] keys every edge by the *canonical
     pool id* of its encoding ([Edgebuf.canon]) and counts the encodings
     kept per (src, dst, label), so membership is pure int hashing —
     candidate bytes pay one string lookup to reach id space.  [adj] chains
     each vertex's out- and in-edges in insertion order.  Positions below
     [indexed] are settled; everything at or past it is the join delta of
     the next superstep. *)
  type loaded = {
    meta : pmeta;
    buf : Edgebuf.t;
    set : Edgebuf.Set.t;
    adj : Edgebuf.Adj.t;
    mutable indexed : int;
    mutable dirty : bool;  (* contents differ from the on-disk file *)
  }

  (* A partition held in memory, in sync with its file.  The current pair's
     partitions are [Live]; every other one is [Parked]: only its flat
     buffer, without decode cache, set or chains, which [load_resident]
     rebuilds from the buffer when the partition rejoins a pair. *)
  type residency = Live of loaded | Parked of Edgebuf.t

  (* An edge routed to a partition that is not loaded; flushed in batch by
     [flush_external]. *)
  type pending = {
    p_src : int;
    p_dst : int;
    p_label : int;
    p_bytes : string;
  }

  type t = {
    config : config;
    decode : Encoding.t -> Formula.t;
    metrics : Metrics.t;
    cache : (string, bool) Lru.t;
        (* feasibility verdicts keyed by canonical encoding wire bytes —
           one flat string hash per probe instead of a deep structural
           hash of the encoding *)
    mutable resident : (pmeta * residency) list;
        (* partitions in sync with their files, most recently used first.
           Their edges total at most the memory budget the partitioning
           already grants — 2 x [max_edges_per_partition] — except that the
           current pair always stays, however large; [trim] evicts the
           least recently used beyond that. *)
    mutable parts : pmeta list;  (* sorted by [lo] *)
    mutable next_pid : int;
    mutable seeds : edge list;   (* only before [run] *)
    mutable n_seed_edges : int;
    mutable max_vertex : int;
    mutable ran : bool;
    mutable run_start : float;  (* wall-budget reference point, set by [run] *)
    mutable persisted : Manifest.part list;
        (* the partitions as the manifest on disk records them *)
    mutable snapshot_bytes : int;
        (* size of the manifest's snapshot; 0 when the next checkpoint must
           rewrite it: this run has written none yet (a restored journal
           may end in a torn record), or an append failed *)
    mutable journal_bytes : int;  (* records appended behind it *)
  }

  let create ?(config : config option) ~decode ~workdir () =
    let config =
      match config with Some c -> c | None -> default_config ~workdir
    in
    ensure_dir config.workdir;
    let metrics = Metrics.create () in
    (* a writer that died mid-[atomic_write] leaves an orphaned temp file;
       sweep it now so it can never shadow live state *)
    let stale = Storage.sweep_stale_temps ~dir:config.workdir in
    if stale > 0 then Metrics.add metrics.Metrics.stale_temps stale;
    { config;
      decode;
      metrics;
      cache = Lru.create (max 16 config.cache_capacity);
      resident = [];
      parts = [];
      next_pid = 0;
      seeds = [];
      n_seed_edges = 0;
      max_vertex = 0;
      ran = false;
      run_start = 0.;
      persisted = [];
      snapshot_bytes = 0;
      journal_bytes = 0 }

  (* Sync pull-style counts (the LRU's eviction tally) into the registry on
     read.  [set] makes repeated reads idempotent. *)
  let metrics t =
    Metrics.set_count t.metrics.Metrics.cache_evictions (Lru.evictions t.cache);
    t.metrics

  (* ---------------- fault absorption and budgets ---------------- *)

  (* Absorb transient storage faults: injected faults and real I/O errors
     are retried with deterministic exponential backoff up to
     [max_retries] times, then propagated.  Simulated crashes
     ([Faults.Crash]) are never caught — a dead process doesn't retry. *)
  let with_retries t f =
    let rec go attempt =
      try f ()
      with (Faults.Injected _ | Sys_error _) as exn ->
        if attempt >= t.config.max_retries then raise exn
        else begin
          Metrics.incr t.metrics.Metrics.retries;
          Obs.Trace.instant ~cat:"storage"
            ~args:[ ("attempt", Obs.Trace.Int attempt) ]
            "storage.retry";
          Unix.sleepf
            (Faults.backoff_delay_s ~seed:t.config.retry_seed
               ~base_ms:t.config.retry_base_ms ~attempt);
          go (attempt + 1)
        end
    in
    go 0

  let check_budgets t =
    Interrupt.check ();
    let c = t.config in
    let edges_added = Metrics.count t.metrics.Metrics.edges_added in
    if c.edge_budget > 0 && edges_added > c.edge_budget then
      raise
        (Budget_exhausted
           (Printf.sprintf "edge budget exhausted (%d > %d)" edges_added
              c.edge_budget));
    if
      c.wall_budget_s > 0. && t.run_start > 0.
      && Unix.gettimeofday () -. t.run_start > c.wall_budget_s
    then
      raise
        (Budget_exhausted
           (Printf.sprintf "wall-clock budget exhausted (%.3fs)" c.wall_budget_s))

  (* ---------------- feasibility with memoization ---------------- *)

  (* Decode and decide one encoding, each step on its own timer; a budget
     cut ([Unknown]) is assumed feasible. *)
  let solve t enc =
    let m = t.metrics in
    let formula = Metrics.time m `Decode (fun () -> t.decode enc) in
    Metrics.time m `Solve (fun () ->
        match Solver.check formula with
        | Solver.Sat | Solver.Unknown -> true
        | Solver.Unsat -> false)

  (* [bytes] must be [enc]'s canonical wire bytes (the cache key). *)
  let feasible t ~(bytes : string) (enc : Encoding.t) : bool =
    if not t.config.feasibility_enabled then true
    else begin
      let m = t.metrics in
      (* a disabled cache is never consulted, so it must not count lookups:
         otherwise stats report a 0% hit rate for a cache that is off *)
      let cached =
        if t.config.cache_enabled then begin
          Metrics.incr m.Metrics.cache_lookups;
          Lru.find t.cache bytes
        end
        else None
      in
      match cached with
      | Some answer ->
          Metrics.incr m.Metrics.cache_hits;
          answer
      | None ->
          let answer = solve t enc in
          Metrics.incr m.Metrics.constraints_solved;
          if t.config.cache_enabled then Lru.add t.cache bytes answer;
          answer
    end

  (* ---------------- seed edges and closure helpers ---------------- *)

  (* [f] on the unary (e.g. New => FlowsTo) and mirror (FlowsTo => reversed
     FlowsToBar) consequences of an edge, in a fixed order: the unary
     labels, then the mirrors of the edge's label and of each unary label.
     They share the edge's path — reversed for mirrors, [~rev:true] — so no
     new constraint check is needed. *)
  let iter_consequences ~src ~dst (label : L.t) f =
    let unary = L.unary label in
    List.iter (fun l -> f ~src ~dst ~label:(L.to_int l) ~rev:false) unary;
    List.iter
      (fun l ->
        match L.mirror l with
        | Some m -> f ~src:dst ~dst:src ~label:(L.to_int m) ~rev:true
        | None -> ())
      (label :: unary)

  let add_seed t ~src ~dst ~label ~enc =
    if t.ran then invalid_arg "Engine.add_seed: engine already ran";
    let e = { src; dst; label; enc } in
    t.max_vertex <- max t.max_vertex (max src dst);
    t.seeds <- e :: t.seeds

  (* ---------------- partition bookkeeping ---------------- *)

  let part_path t pid = Filename.concat t.config.workdir
      (Printf.sprintf "p%04d.edges" pid)

  let fresh_pid t =
    let pid = t.next_pid in
    t.next_pid <- pid + 1;
    pid

  let owner t (v : int) : pmeta =
    match List.find_opt (fun p -> v >= p.lo && v < p.hi) t.parts with
    | Some p -> p
    | None ->
        invalid_arg (Printf.sprintf "Engine.owner: vertex %d out of range" v)

  (* Index a partition's buffer for joining: its edge set and chains.  The
     buffer should hold no exact duplicate records — every writer
     deduplicates — but a hand-edited or legacy file must still load to a
     consistent state.  The set keys on the canonical pool ids the parse
     already built, so this pass never re-hashes encoding bytes. *)
  let activate (meta : pmeta) (raw : Edgebuf.t) : loaded =
    let n_raw = Edgebuf.n raw in
    let set = Edgebuf.Set.of_buf raw in
    let dup = Edgebuf.Set.size set < n_raw in
    let buf, set =
      if not dup then (raw, set)  (* the common case: adopt the file's buffer *)
      else begin
        let b = Edgebuf.create ~capacity:(max 256 n_raw) () in
        let set = Edgebuf.Set.create ~capacity:n_raw b in
        for i = 0 to n_raw - 1 do
          let bytes = Edgebuf.enc_bytes raw (Edgebuf.enc_id raw i) in
          let id = Edgebuf.intern_bytes b bytes in
          ignore
            (Edgebuf.Set.push set ~src:(Edgebuf.src raw i)
               ~dst:(Edgebuf.dst raw i) ~label:(Edgebuf.label raw i) ~enc_id:id)
        done;
        (b, set)
      end
    in
    { meta; buf; set; adj = Edgebuf.Adj.create buf ~lo:meta.lo ~hi:meta.hi;
      indexed = 0; dirty = dup }

  let load t (meta : pmeta) : loaded =
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int meta.pid) ]
      "engine.load"
    @@ fun () ->
    let outcome =
      Metrics.time t.metrics `Io (fun () ->
          with_retries t (fun () -> Storage.read_flat ~path:meta.path))
    in
    Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
    let l = activate meta outcome.Storage.buf in
    (match outcome.Storage.corrupt with
    | None -> ()
    | Some c ->
        (* the valid prefix survives; mark dirty so the next flush rewrites
           the repaired file.  Any record lost with the damaged tail is
           rederived when the pair is reprocessed (the checkpoint manifest
           predates the damage). *)
        Logs.warn (fun k ->
            k "partition %s: %a — kept %d-record prefix"
              (Filename.basename meta.path) Storage.pp_corruption c
              (Edgebuf.n l.buf));
        Metrics.incr t.metrics.Metrics.corrupt_reads;
        Obs.Trace.instant ~cat:"storage"
          ~args:[ ("pid", Obs.Trace.Int meta.pid);
                  ("kept_records", Obs.Trace.Int (Edgebuf.n l.buf)) ]
          "storage.corrupt_recovered";
        l.dirty <- true);
    l

  (* ---------------- residency cache ---------------- *)

  let buf_of = function Live l -> l.buf | Parked b -> b

  (* Entries are matched on the [pmeta] identity: a pid's metadata is one
     record for the partition's whole life, and a split retires it. *)
  let find_resident t (meta : pmeta) =
    List.find_map (fun (m, r) -> if m == meta then Some r else None) t.resident

  (* Make [meta] the most recently used resident partition, as [r]. *)
  let touch t (meta : pmeta) r =
    t.resident <- (meta, r) :: List.filter (fun (m, _) -> m != meta) t.resident

  let evict t (meta : pmeta) =
    t.resident <- List.filter (fun (m, _) -> m != meta) t.resident

  (* Park every live partition outside [pids]: keep the buffer, drop the
     decode cache, set and chains. *)
  let park_except t pids =
    t.resident <-
      List.map
        (fun ((m, r) as e) ->
          match r with
          | Live l when not (List.mem m.pid pids) ->
              Edgebuf.forget_decoded l.buf;
              (m, Parked l.buf)
          | _ -> e)
        t.resident

  (* Evict least recently used partitions until the resident edges fit
     2 x [max_edges_per_partition]; the partitions in [keep] (the current
     pair) always stay. *)
  let trim t ~keep =
    let budget = 2 * t.config.max_edges_per_partition in
    let total =
      ref
        (List.fold_left (fun n (_, r) -> n + Edgebuf.n (buf_of r)) 0 t.resident)
    in
    t.resident <-
      List.fold_left
        (fun kept ((m, r) as e) ->
          if !total > budget && not (List.mem m.pid keep) then begin
            total := !total - Edgebuf.n (buf_of r);
            kept
          end
          else e :: kept)
        [] (List.rev t.resident)

  (* Load through the residency cache.  A resident partition is in sync
     with its file (it was flushed, or never dirtied, when its pair
     completed; routed appends write it back), so a hit skips the read and
     the block parse: a live one is used as is, a parked one gets its set
     and chains rebuilt from the buffer. *)
  let load_resident t (meta : pmeta) : loaded =
    let l =
      match find_resident t meta with
      | Some (Live l) -> l
      | Some (Parked buf) ->
          Obs.Trace.with_span ~cat:"engine"
            ~args:[ ("pid", Obs.Trace.Int meta.pid) ]
            "engine.unpark"
            (fun () -> activate meta buf)
      | None -> load t meta
    in
    touch t meta (Live l);
    l

  (* Insert an int-packed edge into a loaded partition; true if it is new.
     An edge is rejected (treated as already known) when its
     (src, dst, label) key has already accumulated [max_encodings_per_key]
     distinct path encodings: further encodings witness the same analysis
     fact.  [bytes] must be [enc]'s canonical wire bytes. *)
  let insert t (l : loaded) ~src ~dst ~label ~(bytes : string)
      ~(enc : Encoding.t) : bool =
    if Edgebuf.Set.mem_bytes l.set ~src ~dst ~label bytes then false
    else begin
      let cap = t.config.max_encodings_per_key in
      if cap > 0 && Edgebuf.Set.count l.set ~src ~dst ~label >= cap then false
      else begin
        (* canonical by construction: [intern_bytes] returns the existing
           binding or creates the first slot for these bytes *)
        let id = Edgebuf.intern_bytes ~decoded:enc l.buf bytes in
        Edgebuf.push l.buf ~src ~dst ~label ~enc_id:id;
        ignore (Edgebuf.Set.add l.set (Edgebuf.n l.buf - 1));
        Edgebuf.Adj.sync l.adj;
        l.dirty <- true;
        true
      end
    end

  (* Start the join's delta at [upto], the cross-pair count recorded at the
     pair's last fixpoint.  [upto] past the buffer (a corruption-truncated
     file) clamps to the available prefix. *)
  let prepare (l : loaded) ~upto =
    l.indexed <- min (max upto 0) (Edgebuf.n l.buf)

  (* ---------------- flush paths ---------------- *)

  (* Write a loaded partition back, splitting it if it outgrew the memory
     budget (eager repartitioning, §4.3).  The buffer is already in file
     order, so an unsplit flush is one bulk serialization. *)
  let flush t (l : loaded) : unit =
    let count = Edgebuf.n l.buf in
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pid", Obs.Trace.Int l.meta.pid);
              ("edges", Obs.Trace.Int count);
              ("dirty", Obs.Trace.Bool l.dirty) ]
      "engine.flush"
    @@ fun () ->
    let write_meta (meta : pmeta) (buf : Edgebuf.t) =
      let bytes =
        Metrics.time t.metrics `Io (fun () ->
            with_retries t (fun () -> Storage.write_flat ~path:meta.path buf))
      in
      Metrics.add t.metrics.Metrics.bytes_written bytes;
      meta.approx_edges <- Edgebuf.n buf
    in
    let needs_split =
      count > t.config.max_edges_per_partition && l.meta.hi - l.meta.lo >= 2
    in
    if not needs_split then begin
      if l.dirty then begin
        write_meta l.meta l.buf;
        l.meta.version <- l.meta.version + 1;
        l.dirty <- false  (* back in sync with the file: residency-safe *)
      end
    end
    else begin
      (* split at the weighted median source vertex *)
      let srcs = Array.init count (fun i -> Edgebuf.src l.buf i) in
      Array.sort compare srcs;
      let mid_src = srcs.(count / 2) in
      let cut =
        (* cut strictly inside (lo, hi) so both halves are non-empty ranges *)
        max (l.meta.lo + 1) (min mid_src (l.meta.hi - 1))
      in
      let left = Edgebuf.create ~capacity:(max 256 count) () in
      let right = Edgebuf.create ~capacity:(max 256 count) () in
      for i = 0 to count - 1 do
        let target = if Edgebuf.src l.buf i < cut then left else right in
        Edgebuf.push target ~src:(Edgebuf.src l.buf i)
          ~dst:(Edgebuf.dst l.buf i) ~label:(Edgebuf.label l.buf i)
          ~enc_id:
            (Edgebuf.intern_bytes target
               (Edgebuf.enc_bytes l.buf (Edgebuf.enc_id l.buf i)))
      done;
      let mk lo hi buf =
        let pid = fresh_pid t in
        let meta =
          { pid; lo; hi; path = part_path t pid; version = 0;
            approx_edges = 0 }
        in
        write_meta meta buf;
        meta
      in
      let ml = mk l.meta.lo cut left in
      let mr = mk cut l.meta.hi right in
      Storage.remove_file ~path:l.meta.path;
      t.parts <-
        List.sort
          (fun a b -> compare a.lo b.lo)
          (ml :: mr :: List.filter (fun p -> p.pid <> l.meta.pid) t.parts);
      Metrics.incr t.metrics.Metrics.repartitions;
      Obs.Trace.instant ~cat:"engine"
        ~args:[ ("split_pid", Obs.Trace.Int l.meta.pid);
                ("cut", Obs.Trace.Int cut);
                ("left_pid", Obs.Trace.Int ml.pid);
                ("right_pid", Obs.Trace.Int mr.pid) ]
        "engine.repartition"
    end

  (* ---------------- preprocessing ---------------- *)

  (* Close the seeds under unary/mirror rules, partition them into
     [target_partitions] intervals of roughly equal edge counts, and write
     them to disk. *)
  let preprocess t =
    (* the closure goes into one flat buffer in discovery order; the set
       drops repeats.  Each seed interns at most two encodings: its own and
       the reversed one its mirrors share. *)
    let n_seeds = List.length t.seeds in
    let closed = Edgebuf.create ~capacity:n_seeds () in
    let set = Edgebuf.Set.create ~capacity:n_seeds closed in
    let add ~src ~dst ~label id =
      ignore (Edgebuf.Set.push set ~src ~dst ~label ~enc_id:id)
    in
    List.iter
      (fun (e : edge) ->
        let bytes = Encoding.to_bytes e.enc in
        let id = Edgebuf.intern_bytes closed bytes in
        let rev_id = ref (-1) in
        add ~src:e.src ~dst:e.dst ~label:(L.to_int e.label) id;
        iter_consequences ~src:e.src ~dst:e.dst e.label
          (fun ~src ~dst ~label ~rev ->
            if rev && !rev_id < 0 then
              rev_id := Edgebuf.intern_bytes closed (Encoding.rev_bytes bytes);
            add ~src ~dst ~label (if rev then !rev_id else id)))
      t.seeds;
    t.seeds <- [];
    let n = Edgebuf.n closed in
    t.n_seed_edges <- n;
    (* order by (src ascending, discovery descending): a counting sort over
       source vertices, filled newest-first *)
    let order = Array.make n 0 in
    let () =
      let start = Array.make (t.max_vertex + 2) 0 in
      for i = 0 to n - 1 do
        let s = Edgebuf.src closed i + 1 in
        start.(s) <- start.(s) + 1
      done;
      for v = 1 to t.max_vertex + 1 do
        start.(v) <- start.(v) + start.(v - 1)
      done;
      for i = n - 1 downto 0 do
        let s = Edgebuf.src closed i in
        order.(start.(s)) <- i;
        start.(s) <- start.(s) + 1
      done
    in
    let k = max 1 t.config.target_partitions in
    let per = max 1 ((n + k - 1) / k) in
    (* choose interval boundaries at multiples of [per], aligned to source
       vertex changes so an interval never splits a vertex *)
    let bounds = ref [] in
    Array.iteri
      (fun i e ->
        let s = Edgebuf.src closed e in
        if i > 0 && i mod per = 0 && s <> Edgebuf.src closed order.(i - 1) then
          bounds := s :: !bounds)
      order;
    let bounds = List.rev !bounds in
    let lo_list = 0 :: bounds in
    let hi_list = bounds @ [ t.max_vertex + 1 ] in
    let metas =
      List.map2
        (fun lo hi ->
          let pid = fresh_pid t in
          { pid; lo; hi; path = part_path t pid; version = 0;
            approx_edges = 0 })
        lo_list hi_list
    in
    (* one ordered pass: the metas ascend by [lo] and [order] by src, so
       each partition's slice is the next contiguous run of [order] (the
       last interval's [hi] is [max_vertex + 1], so it takes the rest) *)
    let next = ref 0 in
    List.iter
      (fun meta ->
        let buf = Edgebuf.create () in
        while !next < n && Edgebuf.src closed order.(!next) < meta.hi do
          let e = order.(!next) in
          incr next;
          Edgebuf.push buf ~src:(Edgebuf.src closed e)
            ~dst:(Edgebuf.dst closed e) ~label:(Edgebuf.label closed e)
            ~enc_id:
              (Edgebuf.intern_bytes buf
                 (Edgebuf.enc_bytes closed (Edgebuf.enc_id closed e)))
        done;
        let bytes =
          Metrics.time t.metrics `Io (fun () ->
              with_retries t (fun () -> Storage.write_flat ~path:meta.path buf))
        in
        Metrics.add t.metrics.Metrics.bytes_written bytes;
        meta.approx_edges <- Edgebuf.n buf)
      metas;
    t.parts <- metas

  (* ---------------- the edge-pair-centric computation ---------------- *)

  (* A composition that survived the label and encoding checks, awaiting a
     feasibility verdict. *)
  type cand = {
    c_src : int;
    c_dst : int;
    c_label : int;
    c_bytes : string;
    c_enc : Encoding.t;
  }

  (* How many candidates are collected before feasibility checks are
     resolved. *)
  let chunk_cap = 2048

  (* Join the loaded partitions to a local fixpoint, semi-naively: each
     superstep pairs only the edges appended since the last superstep (the
     delta) against the chains, then settles the delta.  Settled edges are
     never re-paired against each other — within a pair, and (via
     [prepare]'s cross-pair counts) across a pair's reprocessings.

     Coverage: for a delta edge e and a settled or delta partner f, the
     ordered pair (e, f) is generated exactly once —
       - e on the left: the src chain of e's [dst] in its owner is walked up
         to that partner's superstep snapshot (settled and delta alike, so
         delta x delta included);
       - e on the right: every loaded partition's dst chain of e's [src] is
         walked up to its [indexed] (delta x delta already covered by the
         left pass).
     Chains ascend by position, so each walk visits partners in the same
     (key, position) order a sorted index would, and no sort is needed.
     Edges inserted *during* a superstep land past the snapshot and join as
     the next superstep's delta.

     [route] receives edges owned by partitions that are not loaded. *)
  let local_fixpoint t (loadeds : loaded list) ~route =
    let m = t.metrics in
    let find_loaded v =
      List.find_opt (fun l -> v >= l.meta.lo && v < l.meta.hi) loadeds
    in
    (* materialize the unary/mirror consequences of a just-added edge; they
       share its (already decided) path, so no feasibility check *)
    let dispatch_consequences ~src ~dst ~label ~bytes ~enc =
      let reversed = lazy (Encoding.rev_bytes bytes, Encoding.rev enc) in
      iter_consequences ~src ~dst (L.of_int label)
        (fun ~src ~dst ~label ~rev ->
          let bytes, enc = if rev then Lazy.force reversed else (bytes, enc) in
          match find_loaded src with
          | Some l' ->
              if insert t l' ~src ~dst ~label ~bytes ~enc then
                Metrics.incr m.Metrics.edges_added
          | None ->
              route
                { p_src = src; p_dst = dst; p_label = label; p_bytes = bytes })
    in
    (* a feasible candidate becomes an edge: inserted locally when a loaded
       partition owns its source (counting it once, here and only here),
       routed otherwise (routed edges are counted by [flush_external], when
       they genuinely land in their target file) *)
    let add_new ~src ~dst ~label ~bytes ~enc =
      match find_loaded src with
      | Some l ->
          if insert t l ~src ~dst ~label ~bytes ~enc then begin
            Metrics.incr m.Metrics.edges_added;
            dispatch_consequences ~src ~dst ~label ~bytes ~enc
          end
      | None ->
          route { p_src = src; p_dst = dst; p_label = label; p_bytes = bytes };
          dispatch_consequences ~src ~dst ~label ~bytes ~enc
    in
    let chunk = ref [] in
    let chunk_n = ref 0 in
    (* resolve the collected candidates: dedup within the chunk (the same
       composition is rediscovered through every parallel witness pair),
       drop the ones that cannot materialize, then cache hits immediately
       and the misses as one solving batch *)
    let resolve_chunk () =
      if !chunk_n > 0 then begin
        (* budgets are polled per chunk so a runaway pair cannot exceed its
           allowance by more than one chunk of work *)
        check_budgets t;
        let cands = List.rev !chunk in
        chunk := [];
        chunk_n := 0;
        let seen = Hashtbl.create 256 in
        let cands =
          List.filter
            (fun c ->
              let key = (c.c_src, c.c_dst, c.c_label, c.c_bytes) in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                true
              end)
            cands
        in
        Metrics.add m.Metrics.edges_considered (List.length cands);
        (* don't pay for a verdict the insert would throw away: already
           present, or its (src, dst, label) key is at the witness cap *)
        let live =
          List.filter
            (fun c ->
              match find_loaded c.c_src with
              | None -> true
              | Some l ->
                  (not
                     (Edgebuf.Set.mem_bytes l.set ~src:c.c_src ~dst:c.c_dst
                        ~label:c.c_label c.c_bytes))
                  &&
                  let cap = t.config.max_encodings_per_key in
                  cap = 0
                  || Edgebuf.Set.count l.set ~src:c.c_src ~dst:c.c_dst
                       ~label:c.c_label
                     < cap)
            cands
        in
        if live <> [] then begin
          if not t.config.feasibility_enabled then
            List.iter
              (fun c ->
                add_new ~src:c.c_src ~dst:c.c_dst ~label:c.c_label
                  ~bytes:c.c_bytes ~enc:c.c_enc)
              live
          else begin
            let unknown = Hashtbl.create 64 in
            let order = ref [] in
            List.iter
              (fun c ->
                (* as in [feasible]: a disabled cache counts no lookups *)
                match
                  if t.config.cache_enabled then begin
                    Metrics.incr m.Metrics.cache_lookups;
                    Lru.find t.cache c.c_bytes
                  end
                  else None
                with
                | Some _ -> Metrics.incr m.Metrics.cache_hits
                | None ->
                    if not (Hashtbl.mem unknown c.c_bytes) then begin
                      Hashtbl.replace unknown c.c_bytes ();
                      order := (c.c_bytes, c.c_enc) :: !order
                    end)
              live;
            let to_solve = List.rev !order in
            let n_to_solve = List.length to_solve in
            let batch_t0 = Unix.gettimeofday () in
            let solved =
              Obs.Trace.with_span ~cat:"smt"
                ~args:[ ("batch_size", Obs.Trace.Int n_to_solve) ]
                "smt.solve_batch"
              @@ fun () ->
              List.map (fun (bytes, enc) -> (bytes, solve t enc)) to_solve
            in
            if n_to_solve > 0 then
              Metrics.observe_batch m ~n:n_to_solve
                ~dt:(Unix.gettimeofday () -. batch_t0);
            Metrics.add m.Metrics.constraints_solved (List.length solved);
            let verdicts = Hashtbl.create 64 in
            List.iter
              (fun (bytes, ok) ->
                Hashtbl.replace verdicts bytes ok;
                if t.config.cache_enabled then Lru.add t.cache bytes ok)
              solved;
            List.iter
              (fun c ->
                let ok =
                  match Hashtbl.find_opt verdicts c.c_bytes with
                  | Some ok -> ok
                  | None ->
                      (* encoding not in this batch (cache-evicted between
                         collection and application): fall back to the
                         single-encoding path *)
                      feasible t ~bytes:c.c_bytes c.c_enc
                in
                if ok then
                  add_new ~src:c.c_src ~dst:c.c_dst ~label:c.c_label
                    ~bytes:c.c_bytes ~enc:c.c_enc)
              live
          end
        end
      end
    in
    (* the join kernel: compose edge [i1] of [l1] with edge [i2] of [l2],
       entirely on unboxed ints until a production fires *)
    let try_pair (l1 : loaded) i1 (l2 : loaded) i2 =
      let code =
        L.compose_code (Edgebuf.label l1.buf i1) (Edgebuf.label l2.buf i2)
      in
      if code >= 0 then begin
        match
          Encoding.compose_normalized
            (Edgebuf.enc l1.buf (Edgebuf.enc_id l1.buf i1))
            (Edgebuf.enc l2.buf (Edgebuf.enc_id l2.buf i2))
        with
        | enc ->
            let cap = t.config.max_path_elements in
            if cap = 0 || Encoding.n_elements enc <= cap then begin
              chunk :=
                { c_src = Edgebuf.src l1.buf i1;
                  c_dst = Edgebuf.dst l2.buf i2; c_label = code;
                  c_bytes = Encoding.to_bytes enc; c_enc = enc }
                :: !chunk;
              incr chunk_n;
              (* resolving mid-scan is safe: insertions land past every
                 bound a running chain walk stops at *)
              if !chunk_n >= chunk_cap then resolve_chunk ()
            end
        | exception Encoding.Incomposable -> ()
      end
    in
    Metrics.time m `Join (fun () ->
        let continue_ = ref true in
        while !continue_ do
          check_budgets t;
          let snaps = List.map (fun l -> (l, Edgebuf.n l.buf)) loadeds in
          if List.for_all (fun (l, n_snap) -> l.indexed >= n_snap) snaps then
            continue_ := false
          else begin
            List.iter
              (fun (l, n_snap) ->
                for i = l.indexed to n_snap - 1 do
                  (* as the left edge of a pair: the partner owning [dst],
                     up to its snapshot *)
                  let v_dst = Edgebuf.dst l.buf i in
                  (match find_loaded v_dst with
                  | Some l2 ->
                      Edgebuf.Adj.iter_src l2.adj v_dst
                        ~upto:(List.assq l2 snaps) (fun j -> try_pair l i l2 j)
                  | None -> ());
                  (* as the right edge of a pair: settled partners only —
                     delta x delta was covered by the left pass *)
                  let v_src = Edgebuf.src l.buf i in
                  List.iter
                    (fun l1 ->
                      Edgebuf.Adj.iter_dst l1.adj v_src ~upto:l1.indexed
                        (fun j -> try_pair l1 j l i))
                    loadeds
                done)
              snaps;
            resolve_chunk ();
            (* settle the delta; edges inserted during this superstep sit
               past [n_snap] and form the next delta *)
            List.iter (fun (l, n_snap) -> l.indexed <- n_snap) snaps
          end
        done)

  (* Append externally-routed edges to the partitions owning them.  Owners
     are resolved here, after any splits performed by [flush], so an edge is
     never appended to a stale partition.  Each pending edge is deduplicated
     against the target's edges (and against the batch itself), and only
     the edges that genuinely land count toward [edges_added] — a routed
     rediscovery of a known fact adds nothing.  A resident target takes the
     edges into its buffer, deduplicated through a set built from it (a
     live one through its own set), and is written back from memory.  Any
     other target is read from its file, and stays resident afterwards
     when it is then in sync with the file. *)
  let flush_external t (pending : pending list) =
    let by_owner : (int, pending list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun p ->
        let meta = owner t p.p_src in
        match Hashtbl.find_opt by_owner meta.pid with
        | Some r -> r := p :: !r
        | None ->
            Hashtbl.replace by_owner meta.pid (ref [ p ]);
            order := meta :: !order)
      pending;
    List.iter
      (fun (meta : pmeta) ->
        let batch = List.rev !(Hashtbl.find by_owner meta.pid) in
        let residency, set =
          match find_resident t meta with
          | Some (Live l as r) -> (r, l.set)
          | Some (Parked buf as r) -> (r, Edgebuf.Set.of_buf buf)
          | None ->
              let outcome =
                Metrics.time t.metrics `Io (fun () ->
                    with_retries t (fun () ->
                        Storage.read_flat ~path:meta.path))
              in
              Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
              let buf = outcome.Storage.buf in
              (* a damaged file is repaired only if this batch rewrites it;
                 until then its next load must see the damage *)
              if outcome.Storage.corrupt = None then touch t meta (Parked buf);
              (Parked buf, Edgebuf.Set.of_buf buf)
        in
        let buf = buf_of residency in
        let added = ref 0 in
        List.iter
          (fun p ->
            let id = Edgebuf.intern_bytes buf p.p_bytes in
            if
              Edgebuf.Set.push set ~src:p.p_src ~dst:p.p_dst ~label:p.p_label
                ~enc_id:id
            then incr added)
          batch;
        (match residency with
        | Live l -> Edgebuf.Adj.sync l.adj
        | Parked _ -> ());
        (* a batch that landed nothing leaves the file byte-identical:
           writing it, or bumping the version, would only force a no-op
           reprocess *)
        if !added > 0 then begin
          let written =
            match
              Metrics.time t.metrics `Io (fun () ->
                  with_retries t (fun () ->
                      Storage.write_flat ~path:meta.path buf))
            with
            | n -> n
            | exception e ->
                (* the buffer is ahead of its file now *)
                evict t meta;
                raise e
          in
          Metrics.add t.metrics.Metrics.bytes_written written;
          Metrics.add t.metrics.Metrics.edges_added !added;
          meta.approx_edges <- meta.approx_edges + !added;
          meta.version <- meta.version + 1;
          touch t meta residency
        end)
      (List.rev !order)

  (* Process one scheduled pair of partitions.  [counts] is the pair's
     recorded deduplicated edge counts at its previous local fixpoint
     ((0, 0) for a first encounter): the join starts its delta there.
     Returns the counts at this fixpoint, captured before flushing, for the
     caller to record. *)
  let process_pair t (pa : pmeta) (pb : pmeta) ~counts:(ca, cb) : int * int =
    Obs.Trace.with_span ~cat:"engine"
      ~args:[ ("pa", Obs.Trace.Int pa.pid); ("pb", Obs.Trace.Int pb.pid) ]
      "engine.pair"
    @@ fun () ->
    Metrics.incr t.metrics.Metrics.pairs_processed;
    (* only the current pair is live; residency beyond it stays within the
       memory budget *)
    let keep = [ pa.pid; pb.pid ] in
    park_except t keep;
    let loadeds =
      if pa.pid = pb.pid then [ load_resident t pa ]
      else [ load_resident t pa; load_resident t pb ]
    in
    trim t ~keep;
    (match loadeds with
    | [ la ] -> prepare la ~upto:ca
    | [ la; lb ] ->
        prepare la ~upto:ca;
        prepare lb ~upto:cb
    | _ -> assert false);
    let pending = ref [] in
    let route p = pending := p :: !pending in
    local_fixpoint t loadeds ~route;
    let counts' =
      match loadeds with
      | [ la ] -> (Edgebuf.n la.buf, Edgebuf.n la.buf)
      | [ la; lb ] -> (Edgebuf.n la.buf, Edgebuf.n lb.buf)
      | _ -> assert false
    in
    List.iter (fun l -> flush t l) loadeds;
    (* a split partition's pid (and file) is gone: drop its resident copy *)
    t.resident <- List.filter (fun (m, _) -> List.memq m t.parts) t.resident;
    flush_external t (List.rev !pending);
    trim t ~keep;
    counts'

  (* ---------------- checkpointing ---------------- *)

  (* Persist partition metadata and the scheduler frontier.  Called after
     every completed pair, *after* that pair's partitions and routed appends
     are durable, so a validating manifest never references state newer than
     the files.  (The converse — files newer than the manifest — is safe:
     the missed pair is simply reprocessed, and reprocessing is idempotent
     because loads and inserts deduplicate; its recorded delta counts are at
     worst stale-low, which only re-joins a suffix.)

     [pair] is the pair just processed.  While the partition list is the
     one the manifest records and its journal is smaller than its
     snapshot, the checkpoint appends that pair's record: its frontier
     entry and the partitions that changed.  Otherwise it rewrites the
     snapshot.

     The crash-at-checkpoint fault hook fires after the write: the manifest
     is durable at that instant, which is exactly the boundary [--resume]
     guarantees byte-identical results from. *)
  let checkpoint ?pair t
      (processed : (int * int, int * int * int * int) Hashtbl.t) =
    let parts =
      List.map
        (fun p ->
          { Manifest.pid = p.pid; lo = p.lo; hi = p.hi; version = p.version;
            approx_edges = p.approx_edges; file = Filename.basename p.path })
        t.parts
    in
    let record =
      match pair with
      | Some key
        when t.journal_bytes < t.snapshot_bytes
             && List.equal
                  (fun (p : Manifest.part) (q : Manifest.part) -> p.pid = q.pid)
                  parts t.persisted ->
          Option.map
            (fun v ->
              { Manifest.pair = (key, v);
                changed =
                  List.filter_map
                    (fun (p, q) -> if p = q then None else Some p)
                    (List.combine parts t.persisted) })
            (Hashtbl.find_opt processed key)
      | _ -> None
    in
    let workdir = t.config.workdir in
    let write () =
      match record with
      | Some r when t.snapshot_bytes > 0 ->
          (* until the append lands, the journal may end in a torn record,
             so a retry rewrites the snapshot *)
          let snapshot = t.snapshot_bytes in
          t.snapshot_bytes <- 0;
          let n = Manifest.append ~workdir r in
          t.snapshot_bytes <- snapshot;
          t.journal_bytes <- t.journal_bytes + n
      | _ ->
          let frontier =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) processed []
            |> List.sort compare
          in
          t.snapshot_bytes <-
            Manifest.save ~workdir
              { Manifest.next_pid = t.next_pid; max_vertex = t.max_vertex;
                n_seed_edges = t.n_seed_edges; parts; processed = frontier };
          t.journal_bytes <- 0
    in
    Obs.Trace.with_span ~cat:"engine"
      ~args:
        [ ("parts", Obs.Trace.Int (List.length parts));
          ("snapshot", Obs.Trace.Bool (record = None)) ]
      "engine.checkpoint"
      (fun () -> Metrics.time t.metrics `Io (fun () -> with_retries t write));
    t.persisted <- parts;
    Faults.on_checkpoint ()

  (* Restore partition metadata and the scheduler frontier from the last
     checkpoint; false when there is none (or it failed validation). *)
  let try_restore t (processed : (int * int, int * int * int * int) Hashtbl.t)
      : bool =
    match with_retries t (fun () -> Manifest.load ~workdir:t.config.workdir) with
    | None -> false
    | Some m
      when not
             (List.for_all
                (fun (p : Manifest.part) ->
                  Sys.file_exists
                    (Filename.concat t.config.workdir p.Manifest.file))
                m.Manifest.parts) ->
        (* a checksum-valid manifest referencing a vanished partition file
           describes state that no longer exists: start fresh rather than
           resume into silently-empty partitions *)
        false
    | Some m ->
        t.parts <-
          List.map
            (fun (p : Manifest.part) ->
              { pid = p.Manifest.pid; lo = p.Manifest.lo; hi = p.Manifest.hi;
                path = Filename.concat t.config.workdir p.Manifest.file;
                version = p.Manifest.version;
                approx_edges = p.Manifest.approx_edges })
            m.Manifest.parts
          |> List.sort (fun a b -> compare a.lo b.lo);
        t.next_pid <- m.Manifest.next_pid;
        t.max_vertex <- max t.max_vertex m.Manifest.max_vertex;
        t.n_seed_edges <- m.Manifest.n_seed_edges;
        t.seeds <- [];  (* the partitions already hold the preprocessed seeds *)
        List.iter (fun (k, v) -> Hashtbl.replace processed k v)
          m.Manifest.processed;
        true

  (* Run to global fixpoint.  With [~resume:true], continue from the
     workdir's checkpoint manifest when one validates (fresh run
     otherwise): partitions and frontier are restored and only pairs whose
     versions advanced since the checkpoint are (re)processed — and those
     only past their recorded delta counts.  The closure is confluent —
     facts accumulate monotonically and deduplicate — so a resumed run
     converges to the same fixpoint as an uninterrupted one. *)
  let run ?(resume = false) t =
    if t.ran then invalid_arg "Engine.run: already ran";
    t.ran <- true;
    t.run_start <- Unix.gettimeofday ();
    (* (pid_min, pid_max) -> (version_min, version_max, count_min, count_max),
       versions and fixpoint counts stored in pid order *)
    let processed : (int * int, int * int * int * int) Hashtbl.t =
      Hashtbl.create 256
    in
    let restored = resume && try_restore t processed in
    if not restored then begin
      Obs.Trace.with_span ~cat:"engine"
        ~args:[ ("seeds", Obs.Trace.Int (List.length t.seeds)) ]
        "engine.preprocess"
        (fun () -> preprocess t);
      checkpoint t processed
    end;
    let continue = ref true in
    (* the resident partitions are only of use to this loop *)
    Fun.protect ~finally:(fun () -> t.resident <- []) @@ fun () ->
    while !continue do
      continue := false;
      (* snapshot: [t.parts] changes under our feet when partitions split *)
      let snapshot = t.parts in
      List.iteri
        (fun i pa ->
          List.iteri
            (fun j pb ->
              if j >= i then begin
                let alive p = List.exists (fun q -> q.pid = p.pid) t.parts in
                if alive pa && alive pb then begin
                  let key = (min pa.pid pb.pid, max pa.pid pb.pid) in
                  let swap = pa.pid > pb.pid in
                  let vers =
                    if swap then (pb.version, pa.version)
                    else (pa.version, pb.version)
                  in
                  let needs, (c1, c2) =
                    match Hashtbl.find_opt processed key with
                    | None -> (true, (0, 0))
                    | Some (va, vb, ca, cb) -> ((va, vb) <> vers, (ca, cb))
                  in
                  if needs then begin
                    continue := true;
                    let counts = if swap then (c2, c1) else (c1, c2) in
                    let parts_before = t.parts in
                    let ca', cb' = process_pair t pa pb ~counts in
                    (* versions may have advanced during processing *)
                    let cur p =
                      match List.find_opt (fun q -> q.pid = p.pid) t.parts with
                      | Some q -> q.version
                      | None -> -1
                    in
                    let v1, v2, d1, d2 =
                      if swap then (cur pb, cur pa, cb', ca')
                      else (cur pa, cur pb, ca', cb')
                    in
                    Hashtbl.replace processed key (v1, v2, d1, d2);
                    if t.parts != parts_before then begin
                      (* a split retired a pid for good: [alive] never asks
                         about its pairs again, so the frontier drops them *)
                      let live pid =
                        List.exists (fun q -> q.pid = pid) t.parts
                      in
                      Hashtbl.filter_map_inplace
                        (fun (a, b) v ->
                          if live a && live b then Some v else None)
                        processed
                    end;
                    checkpoint ~pair:key t processed;
                    check_budgets t
                  end
                end
              end)
            snapshot)
        snapshot
    done

  (* ---------------- results ---------------- *)

  let n_partitions t = List.length t.parts
  let n_seed_edges t = t.n_seed_edges

  (* Exact total edge count.  Every writer deduplicates, so the files hold
     each edge once and folding needs no membership tables — just the raw
     buffer.  Edges are folded newest-first per partition, matching the
     historical reverse-insertion-order iteration that report generation
     depends on. *)
  let fold_edges t f acc =
    List.fold_left
      (fun acc meta ->
        let outcome =
          Metrics.time t.metrics `Io (fun () ->
              with_retries t (fun () -> Storage.read_flat ~path:meta.path))
        in
        Metrics.add t.metrics.Metrics.bytes_read outcome.Storage.bytes;
        (match outcome.Storage.corrupt with
        | None -> ()
        | Some c ->
            Logs.warn (fun k ->
                k "partition %s: %a — kept %d-record prefix"
                  (Filename.basename meta.path) Storage.pp_corruption c
                  (Edgebuf.n outcome.Storage.buf));
            Metrics.incr t.metrics.Metrics.corrupt_reads);
        let buf = outcome.Storage.buf in
        let acc = ref acc in
        for i = Edgebuf.n buf - 1 downto 0 do
          let e =
            { src = Edgebuf.src buf i; dst = Edgebuf.dst buf i;
              label = L.of_int (Edgebuf.label buf i);
              enc = Edgebuf.enc buf (Edgebuf.enc_id buf i) }
          in
          acc := f !acc e
        done;
        !acc)
      acc t.parts

  let total_edges t = fold_edges t (fun n _ -> n + 1) 0

  let iter_result_edges t f =
    fold_edges t (fun () e -> if L.is_result e.label then f e) ()

  (* Delete the working directory contents created by this engine. *)
  let cleanup t =
    t.resident <- [];
    List.iter
      (fun p ->
        Storage.remove_file ~path:p.path;
        Storage.remove_file ~path:(p.path ^ ".tmp"))
      t.parts;
    let manifest = Manifest.path ~workdir:t.config.workdir in
    Storage.remove_file ~path:manifest;
    Storage.remove_file ~path:(manifest ^ ".tmp")
end
