(* Versioned checkpoint manifest for the engine: a snapshot followed by an
   append-only journal.

   After every scheduled partition pair the engine persists its partition
   metadata and scheduler frontier here, so a killed run can resume from the
   last completed pair instead of from zero.  Format (text, line-based):

     grapple-manifest 3
     next_pid N
     max_vertex N
     n_seed_edges N
     part <pid> <lo> <hi> <version> <approx_edges> <file-basename>
     ...
     done <pid-min> <pid-max> <version-a> <version-b> <count-a> <count-b>
     ...
     end <fnv1a-32 of everything above>
     done ...                          \
     part ...                           | one journal record per pair
     end <fnv1a-32 of the record body> /
     ...

   The first sealed block is the *snapshot*: the whole state, written
   atomically (temp + rename, via [Storage]).  Each later block is a
   *journal record*, appended in place after a pair completes: that pair's
   [done] line and the [part] lines whose version or size changed since the
   previous checkpoint.  A record never adds or retires a partition — a
   split rewrites the snapshot — so every [part] line names a pid the state
   already has.  The engine rewrites the snapshot when the journal outgrows
   it, when the partition list changes, and after a failed append, so a
   checkpoint costs the pair's own lines, not the whole frontier.

   [done] carries, per processed pair, the partitions' deduplicated edge
   counts at the moment the pair reached its local fixpoint.  Partition
   files only ever grow by appending behind that prefix (flushes preserve
   load order; splits mint fresh pids), so on reprocessing the engine joins
   only the edges past those counts — the cross-pair delta — instead of
   re-joining everything.

   Every block ends in a checksum of its body.  A snapshot that fails
   validation, or a manifest of another version (v1 and v2 wrote the whole
   state atomically after every pair), yields [None] and the engine starts
   fresh.  Records are replayed in order up to the first torn or damaged
   one; everything from there on is ignored.  A torn tail therefore reads as
   the state after the previous pair: the files may be newer than that, and
   reprocessing the pair it missed is idempotent.  Partition files are
   flushed *before* the checkpoint that references them, so any state that
   validates only ever points at durable partition state (possibly older
   than the files, never newer). *)

type part = {
  pid : int;
  lo : int;
  hi : int;              (* source-vertex interval [lo, hi) *)
  version : int;
  approx_edges : int;
  file : string;         (* basename, resolved against the workdir *)
}

(* One processed pair of the scheduler frontier:
     ((pid_min, pid_max), (version_a, version_b, count_a, count_b)) *)
type pair = (int * int) * (int * int * int * int)

type t = {
  next_pid : int;
  max_vertex : int;
  n_seed_edges : int;
  parts : part list;
  (* the scheduler frontier, exactly the engine's [processed] table; the
     counts are the partitions' deduplicated edge counts at the pair's last
     local fixpoint *)
  processed : pair list;
}

(* A journal record: the pair just processed, and the partitions whose
   version or size changed since the previous checkpoint. *)
type record = {
  pair : pair;
  changed : part list;
}

let format_version = 3

let path ~workdir = Filename.concat workdir "manifest"

let add_part buf p =
  Printf.bprintf buf "part %d %d %d %d %d %s\n" p.pid p.lo p.hi p.version
    p.approx_edges p.file

let add_done buf ((a, b), (va, vb, ca, cb)) =
  Printf.bprintf buf "done %d %d %d %d %d %d\n" a b va vb ca cb

(* Close a block with the checksum of its body. *)
let seal buf =
  let body = Buffer.contents buf in
  Printf.sprintf "%send %d\n" body (Storage.checksum_string body)

let render (m : t) : string =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "grapple-manifest %d\n" format_version;
  Printf.bprintf buf "next_pid %d\n" m.next_pid;
  Printf.bprintf buf "max_vertex %d\n" m.max_vertex;
  Printf.bprintf buf "n_seed_edges %d\n" m.n_seed_edges;
  List.iter (add_part buf) m.parts;
  List.iter (add_done buf) m.processed;
  seal buf

let render_record (r : record) : string =
  let buf = Buffer.create 256 in
  add_done buf r.pair;
  List.iter (add_part buf) r.changed;
  seal buf

(* Replace the manifest with a snapshot of [m], dropping the journal;
   returns the snapshot's size in bytes. *)
let save ~workdir (m : t) : int =
  let text = render m in
  Storage.write_string_atomic ~path:(path ~workdir) text;
  String.length text

(* Append a journal record; returns its size in bytes.  On a failure the
   file may end in a torn record, which [load] ignores — but a record
   appended behind it would be ignored too, so the caller must rewrite the
   snapshot before appending again. *)
let append ~workdir (r : record) : int =
  let text = render_record r in
  Storage.append_string ~path:(path ~workdir) text;
  String.length text

(* ---------------- reading ---------------- *)

(* Decimal digits only: [int_of_string] would also take a sign, "0x", or
   underscores, so a damaged byte could still parse to the same number. *)
let nat s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

(* The sealed block starting at [pos]: its body lines and the offset just
   past it.  [None] when the block is torn (no complete [end] line) or its
   checksum does not match. *)
let next_block (contents : string) (pos : int) : (string list * int) option =
  let len = String.length contents in
  let rec scan i =
    match String.index_from_opt contents i '\n' with
    | None -> None
    | Some j ->
        let line = String.sub contents i (j - i) in
        if String.length line >= 4 && String.sub line 0 4 = "end " then
          let body = String.sub contents pos (i - pos) in
          match nat (String.sub line 4 (String.length line - 4)) with
          | Some sum when sum = Storage.checksum_string body ->
              let lines = String.split_on_char '\n' body in
              (* the body ends in '\n': drop the empty last element *)
              Some (List.filter (fun l -> l <> "") lines, j + 1)
          | _ -> None
        else scan (j + 1)
  in
  if pos >= len then None else scan pos

let parse_part = function
  | [ "part"; pid; lo; hi; version; approx; file ] when file <> "" -> (
      match (nat pid, nat lo, nat hi, nat version, nat approx) with
      | Some pid, Some lo, Some hi, Some version, Some approx_edges ->
          Some { pid; lo; hi; version; approx_edges; file }
      | _ -> None)
  | _ -> None

let parse_done = function
  | [ "done"; a; b; va; vb; ca; cb ] -> (
      match (nat a, nat b, nat va, nat vb, nat ca, nat cb) with
      | Some a, Some b, Some va, Some vb, Some ca, Some cb ->
          Some ((a, b), (va, vb, ca, cb))
      | _ -> None)
  | _ -> None

let words line = String.split_on_char ' ' line

let parse_snapshot (lines : string list) : t option =
  match List.map words lines with
  | [ "grapple-manifest"; v ]
    :: [ "next_pid"; np ] :: [ "max_vertex"; mv ] :: [ "n_seed_edges"; ns ]
    :: rest
    when nat v = Some format_version -> (
      let rec go parts processed = function
        | [] -> Some (List.rev parts, List.rev processed)
        | ws :: rest -> (
            match (parse_part ws, parse_done ws) with
            | Some p, _ when processed = [] -> go (p :: parts) processed rest
            | _, Some d -> go parts (d :: processed) rest
            | _ -> None)
      in
      match (nat np, nat mv, nat ns, go [] [] rest) with
      | ( Some next_pid, Some max_vertex, Some n_seed_edges,
          Some (parts, processed) ) ->
          Some { next_pid; max_vertex; n_seed_edges; parts; processed }
      | _ -> None)
  | _ -> None

(* Journal replay state: the snapshot's partitions and frontier, updated
   in place record by record. *)
type replay = {
  mutable r_parts : part list;
  frontier : (int * int, int * int * int * int) Hashtbl.t;
  mutable added : (int * int) list;
      (* keys new since the snapshot, newest first *)
}

(* Apply one record's lines; false (changing nothing) when the record does
   not parse or names a partition the state does not have. *)
let apply (st : replay) (lines : string list) : bool =
  match List.map words lines with
  | [] -> false
  | d :: rest -> (
      let changed = List.map parse_part rest in
      match parse_done d with
      | Some (key, v)
        when List.for_all
               (function
                 | Some (c : part) ->
                     List.exists (fun p -> p.pid = c.pid) st.r_parts
                 | None -> false)
               changed ->
          let changed = List.filter_map Fun.id changed in
          st.r_parts <-
            List.map
              (fun p ->
                match List.find_opt (fun c -> c.pid = p.pid) changed with
                | Some c -> c
                | None -> p)
              st.r_parts;
          if not (Hashtbl.mem st.frontier key) then st.added <- key :: st.added;
          Hashtbl.replace st.frontier key v;
          true
      | _ -> false)

(* [None] on a missing, damaged, or wrong-version snapshot — the caller
   starts fresh.  Never raises on bad contents. *)
let load ~workdir : t option =
  let file = path ~workdir in
  Faults.on_read ~path:file;
  if not (Sys.file_exists file) then None
  else begin
    let contents = In_channel.with_open_bin file In_channel.input_all in
    match next_block contents 0 with
    | None -> None
    | Some (lines, pos) -> (
        match parse_snapshot lines with
        | None -> None
        | Some m ->
            let st =
              { r_parts = m.parts; frontier = Hashtbl.create 256; added = [] }
            in
            List.iter
              (fun (k, v) -> Hashtbl.replace st.frontier k v)
              m.processed;
            let rec replay pos =
              match next_block contents pos with
              | Some (lines, pos') when apply st lines -> replay pos'
              | _ -> ()
            in
            replay pos;
            let current k = (k, Hashtbl.find st.frontier k) in
            Some
              { m with
                parts = st.r_parts;
                processed =
                  List.map (fun (k, _) -> current k) m.processed
                  @ List.rev_map current st.added })
  end
