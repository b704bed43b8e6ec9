// Package store is coordd's durable second result tier: a
// content-addressed on-disk store keyed by the service layer's
// canonical `coordd/v2` sha256 spec keys. It models the discipline the
// paper demands of its processes — settled knowledge must survive a
// crash, and a degraded process must stay safe (answer less, never
// answer wrong):
//
//   - Writes are crash-safe: body written to a temp file in the target
//     shard, fsynced, atomically renamed into place, shard directory
//     fsynced. A crash at any point leaves either the old state or the
//     new state, never a torn entry.
//   - Reads re-verify a checksum binding the entry to both its body
//     bytes *and* its filename; an entry that was corrupted, truncated,
//     or renamed under the wrong key is quarantined (moved to
//     quarantine/) and reported as a miss, never served and never fatal.
//   - The store is size-budgeted: an LRU GC pass runs at open and after
//     every write, evicting least-recently-used entries until the byte
//     budget holds.
//   - Any write-path I/O error (disk full, permissions, dead mount)
//     demotes the store to read-only, logged once; callers keep working
//     from memory. Degradation is recoverable: a background probe (and
//     the operator Rescan surface) re-admits the store to read-write
//     once a tiny test write succeeds again — a healed disk does not
//     require a restart.
//
// Every filesystem operation goes through the FS interface (fs.go), so
// fault-injection harnesses (internal/chaos) can drive the store
// through deterministic EIO/ENOSPC/torn-write schedules.
//
// Layout under the root directory:
//
//	<dir>/ab/abcd…64-hex-key    one entry per key, sharded by key[:2]
//	<dir>/quarantine/<key>      corrupt entries, kept for post-mortem
//
// Entry format: a single header line "coordd-store/v1 <sha256>\n"
// followed by the raw body bytes, where <sha256> is hex over
// "<key>\n<body>" — so the checksum fails both when the body rots and
// when a valid file is attached to the wrong key.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// formatVersion prefixes every entry header. Bump it when the entry
// encoding changes; unrecognized versions are quarantined on read.
const formatVersion = "coordd-store/v1"

const quarantineDir = "quarantine"

// Options tunes Open.
type Options struct {
	// MaxBytes is the byte budget over entry bodies plus headers;
	// 0 means unlimited.
	MaxBytes int64
	// Logf receives one line per degradation, recovery, and quarantine
	// event; nil discards them.
	Logf func(format string, args ...any)
	// FS overrides the filesystem implementation; nil means the real
	// disk (DiskFS). Chaos harnesses inject faults here.
	FS FS
	// ProbeInterval, when positive, starts a background recovery
	// prober: every interval, while and only while the store is
	// degraded, it attempts one tiny write through the full crash-safe
	// protocol and re-admits the store to read-write on success
	// (counted in Stats.Recoveries). Stop it with Close.
	ProbeInterval time.Duration
}

// Stats is a point-in-time snapshot of the store's counters and gauges.
type Stats struct {
	Hits        int64
	Misses      int64
	Writes      int64
	Evictions   int64
	Quarantined int64
	Recoveries  int64
	Entries     int
	Bytes       int64
	Degraded    bool
}

// QuarantineEntry describes one file held in quarantine/, as listed by
// Quarantine for the admin surface. Name is the bare filename — usually
// a 64-hex key, but crash debris with arbitrary names is listed too.
type QuarantineEntry struct {
	Name    string    `json:"name"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// RescanReport summarizes one Rescan pass for the admin surface.
type RescanReport struct {
	// Verified counts serving-tree entries whose checksum re-verified.
	Verified int `json:"verified"`
	// Quarantined counts serving-tree entries this pass found corrupt
	// and moved to quarantine.
	Quarantined int `json:"quarantined"`
	// Readmitted counts quarantine files that now verify (repaired or
	// falsely accused) and were moved back into the serving tree.
	Readmitted int `json:"readmitted"`
	// QuarantineLeft counts the files still in quarantine afterwards.
	QuarantineLeft int `json:"quarantine_left"`
	// Recovered reports whether this pass un-degraded the store.
	Recovered bool `json:"recovered"`
	// Degraded is the store's state after the pass.
	Degraded bool `json:"degraded"`
}

// Store is a crash-safe, content-addressed, size-budgeted result store.
// It is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	logf     func(format string, args ...any)
	fs       FS

	hits, misses, writes, evictions, quarantined, recoveries atomic.Int64

	mu       sync.Mutex
	entries  map[string]*entry
	bytes    int64 // sum of entry file sizes
	degraded bool

	closeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// entry is the in-memory index record for one on-disk file: its size
// and last-use time, which is all the LRU GC needs. File mtimes are
// kept roughly in sync so recency survives a restart.
type entry struct {
	size  int64
	atime time.Time
}

// Open creates or reopens a store rooted at dir: it builds the entry
// index from the files already present (sweeping stray temp and probe
// files) and runs one GC pass so a shrunken budget takes effect
// immediately.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	fs := opts.FS
	if fs == nil {
		fs = DiskFS()
	}
	if err := fs.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		logf:     opts.Logf,
		fs:       fs,
		entries:  make(map[string]*entry),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.gc()
	s.mu.Unlock()
	if opts.ProbeInterval > 0 {
		s.probeStop = make(chan struct{})
		s.probeDone = make(chan struct{})
		go s.probeLoop(opts.ProbeInterval)
	}
	return s, nil
}

// Close stops the background recovery prober, if one was started. The
// store itself holds no other resources; reads and writes remain valid
// after Close (a closed store just no longer self-heals).
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.probeStop != nil {
			close(s.probeStop)
			<-s.probeDone
		}
	})
}

// probeLoop is the recovery state machine's timer: degraded → probe →
// (healed) read-write. Probing while healthy is skipped entirely, so
// the loop costs nothing on a healthy daemon.
func (s *Store) probeLoop(interval time.Duration) {
	defer close(s.probeDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-ticker.C:
			if s.Degraded() {
				s.Probe()
			}
		}
	}
}

// scan rebuilds the index from disk. Unrecognized files inside shard
// directories are left alone except temp files, which a crash mid-write
// can strand and which are deleted; stray probe files at the root get
// the same sweep.
func (s *Store) scan() error {
	shards, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			if strings.HasPrefix(shard.Name(), "probe-") {
				_ = s.fs.Remove(filepath.Join(s.dir, shard.Name()))
			}
			continue
		}
		if !isShardName(shard.Name()) {
			continue
		}
		shardPath := filepath.Join(s.dir, shard.Name())
		files, err := s.fs.ReadDir(shardPath)
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, "tmp-") {
				_ = s.fs.Remove(filepath.Join(shardPath, name))
				continue
			}
			if !IsKey(name) || name[:2] != shard.Name() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			s.entries[name] = &entry{size: info.Size(), atime: info.ModTime()}
			s.bytes += info.Size()
		}
	}
	return nil
}

func isShardName(name string) bool {
	return len(name) == 2 && isHex(name)
}

// IsKey reports whether key is a well-formed spec key: 64 lowercase
// hex characters. Everything else is rejected before touching the
// filesystem, which also closes the path-traversal door; coordd's peer
// endpoints apply the same check to keys arriving over the network.
func IsKey(key string) bool {
	return len(key) == 64 && isHex(key)
}

func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// checksum binds an entry to its key and body: hex sha256 over
// "<key>\n<body>".
func checksum(key string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// encode renders the on-disk form of one entry.
func encode(key string, body []byte) []byte {
	header := formatVersion + " " + checksum(key, body) + "\n"
	out := make([]byte, 0, len(header)+len(body))
	out = append(out, header...)
	out = append(out, body...)
	return out
}

// decode parses and verifies an entry file read for key, returning the
// body or an error describing the corruption.
func decode(key string, data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	version, sum, ok := strings.Cut(string(data[:nl]), " ")
	if !ok || version != formatVersion {
		return nil, fmt.Errorf("bad header version %q", version)
	}
	body := data[nl+1:]
	if got := checksum(key, body); got != sum {
		return nil, fmt.Errorf("checksum mismatch: header %s, computed %s", sum, got)
	}
	return body, nil
}

// Get returns the stored body for key and whether it was present. A
// corrupt or mis-keyed entry is moved to quarantine/ and reported as a
// miss; I/O errors are plain misses. Hits refresh the entry's recency.
func (s *Store) Get(key string) ([]byte, bool) {
	if !IsKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	path := s.path(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, err := decode(key, data)
	if err != nil {
		s.quarantine(key, path, err)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.touch(key)
	return body, true
}

// touch refreshes an entry's LRU recency, mirroring it to the file
// mtime (best effort) so restarts keep an approximate access order.
func (s *Store) touch(key string) {
	now := time.Now()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.atime = now
	}
	s.mu.Unlock()
	_ = s.fs.Chtimes(s.path(key), now, now)
}

// quarantine moves a corrupt entry out of the serving tree so the next
// Get misses cleanly and the bytes stay available for post-mortem.
func (s *Store) quarantine(key, path string, cause error) {
	s.quarantined.Add(1)
	dest := filepath.Join(s.dir, quarantineDir, key)
	if err := s.fs.Rename(path, dest); err != nil {
		// Renaming out failed; removing is the next-safest way to stop
		// serving the corrupt bytes.
		_ = s.fs.Remove(path)
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes -= e.size
		delete(s.entries, key)
	}
	s.mu.Unlock()
	if s.logf != nil {
		s.logf("store: quarantined %s: %v", key, cause)
	}
}

// Put durably stores body under key and runs a GC pass. On a write-path
// error the store demotes itself to read-only (logged once) and returns
// the error; callers are expected to treat that as advisory — the
// computation already succeeded, only its persistence failed.
func (s *Store) Put(key string, body []byte) error {
	if !IsKey(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded {
		return nil
	}
	if e, ok := s.entries[key]; ok {
		// Keys are content addresses: an existing entry already holds
		// these bytes, so only its recency changes.
		e.atime = time.Now()
		return nil
	}
	size, err := s.writeEntry(key, body)
	if err != nil {
		s.demote(err)
		return err
	}
	s.entries[key] = &entry{size: size, atime: time.Now()}
	s.bytes += size
	s.writes.Add(1)
	s.gc()
	return nil
}

// writeEntry is the atomic write protocol: temp file in the target
// shard, write, fsync, close, rename over the final name, fsync the
// shard directory. Rename within one directory is atomic on POSIX, so
// readers see the old world or the new one, never a torn file.
func (s *Store) writeEntry(key string, body []byte) (int64, error) {
	shard := filepath.Join(s.dir, key[:2])
	if err := s.fs.MkdirAll(shard, 0o755); err != nil {
		return 0, err
	}
	f, err := s.fs.CreateTemp(shard, "tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	data := encode(key, body)
	if _, err := f.Write(data); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return 0, err
	}
	if err := s.fs.Rename(tmp, s.path(key)); err != nil {
		s.fs.Remove(tmp)
		return 0, err
	}
	if err := s.fs.SyncDir(shard); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// demote flips the store to read-only exactly once per outage. Existing
// entries keep serving reads; new bodies stay memory-only in the
// caller's tier until a probe or rescan re-admits the store.
// Called with mu held.
func (s *Store) demote(cause error) {
	if s.degraded {
		return
	}
	s.degraded = true
	if s.logf != nil {
		s.logf("store: write failed, demoting to read-only: %v", cause)
	}
}

// Probe checks whether the write path works again: one tiny write
// through the full temp+fsync protocol, then removed. A degraded store
// whose probe succeeds is re-admitted to read-write (Stats.Recoveries
// counts these transitions); a healthy store probes as a no-op success.
// It returns whether the store is read-write afterwards.
func (s *Store) Probe() bool {
	s.mu.Lock()
	degraded := s.degraded
	s.mu.Unlock()
	if !degraded {
		return true
	}
	if err := s.probeWrite(); err != nil {
		return false
	}
	s.mu.Lock()
	recovered := s.degraded
	s.degraded = false
	s.mu.Unlock()
	if recovered {
		s.recoveries.Add(1)
		if s.logf != nil {
			s.logf("store: write probe succeeded, re-admitting to read-write")
		}
	}
	return true
}

// probeWrite exercises the write path end to end without touching any
// entry: create, write, fsync, close, remove — the cheapest sequence
// that would have failed during the outage.
func (s *Store) probeWrite() error {
	f, err := s.fs.CreateTemp(s.dir, "probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write([]byte(formatVersion + " probe\n")); err != nil {
		f.Close()
		s.fs.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(name)
		return err
	}
	return s.fs.Remove(name)
}

// Quarantine lists the files currently held in quarantine/, sorted by
// name. Unreadable metadata is reported as a zero-sized entry rather
// than omitted, so the operator always sees every file.
func (s *Store) Quarantine() []QuarantineEntry {
	files, err := s.fs.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return nil
	}
	out := make([]QuarantineEntry, 0, len(files))
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		qe := QuarantineEntry{Name: f.Name()}
		if info, err := f.Info(); err == nil {
			qe.Size = info.Size()
			qe.ModTime = info.ModTime()
		}
		out = append(out, qe)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Rescan is the operator maintenance pass behind POST
// /v1/admin/store/rescan: it probes the write path (possibly
// un-degrading the store), re-verifies every indexed entry against its
// checksum (quarantining any that rotted since it was written), and
// re-admits quarantine files that verify again — an operator who
// repaired or restored a quarantined file gets it back into the serving
// tree without a restart.
func (s *Store) Rescan() RescanReport {
	var rep RescanReport
	wasDegraded := s.Degraded()
	healthy := s.Probe()
	rep.Recovered = wasDegraded && healthy

	// Re-verify the serving tree against a snapshot of the index; Get's
	// ordinary quarantine path handles anything that fails.
	s.mu.Lock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		data, err := s.fs.ReadFile(s.path(k))
		if err != nil {
			// Unreadable is not provably corrupt: leave the entry alone
			// (a transient IO error must not throw away good bytes).
			continue
		}
		if _, err := decode(k, data); err != nil {
			s.quarantine(k, s.path(k), err)
			rep.Quarantined++
			continue
		}
		rep.Verified++
	}

	// Re-admit quarantine files that verify now. Only well-formed key
	// names can re-enter the serving tree; crash debris stays put.
	for _, qe := range s.Quarantine() {
		if !IsKey(qe.Name) {
			continue
		}
		qpath := filepath.Join(s.dir, quarantineDir, qe.Name)
		data, err := s.fs.ReadFile(qpath)
		if err != nil {
			continue
		}
		if _, err := decode(qe.Name, data); err != nil {
			continue
		}
		s.mu.Lock()
		_, indexed := s.entries[qe.Name]
		s.mu.Unlock()
		if indexed {
			// The serving tree already holds these bytes (checksums bind
			// key and body, so the copies are identical); drop the
			// duplicate instead of moving it back.
			_ = s.fs.Remove(qpath)
			continue
		}
		shard := filepath.Join(s.dir, qe.Name[:2])
		if err := s.fs.MkdirAll(shard, 0o755); err != nil {
			continue
		}
		if err := s.fs.Rename(qpath, s.path(qe.Name)); err != nil {
			continue
		}
		now := time.Now()
		s.mu.Lock()
		s.entries[qe.Name] = &entry{size: int64(len(data)), atime: now}
		s.bytes += int64(len(data))
		s.gc()
		s.mu.Unlock()
		rep.Readmitted++
		if s.logf != nil {
			s.logf("store: readmitted %s from quarantine", qe.Name)
		}
	}

	rep.QuarantineLeft = len(s.Quarantine())
	rep.Degraded = s.Degraded()
	return rep
}

// gc evicts least-recently-used entries until the byte budget holds.
// Called with mu held.
func (s *Store) gc() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type victim struct {
		key string
		e   *entry
	}
	all := make([]victim, 0, len(s.entries))
	for k, e := range s.entries {
		all = append(all, victim{k, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.atime.Before(all[j].e.atime) })
	for _, v := range all {
		if s.bytes <= s.maxBytes {
			break
		}
		_ = s.fs.Remove(s.path(v.key))
		s.bytes -= v.e.size
		delete(s.entries, v.key)
		s.evictions.Add(1)
	}
}

// Degraded reports whether a write-path error has demoted the store to
// read-only.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys returns every indexed key in sorted order. The cluster's
// anti-entropy repair loop walks this to find results whose replica
// set is under-populated.
func (s *Store) Keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.entries))
	for key := range s.entries {
		out = append(out, key)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Bytes reports the indexed on-disk size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots every counter and gauge for /metrics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes, degraded := len(s.entries), s.bytes, s.degraded
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Evictions:   s.evictions.Load(),
		Quarantined: s.quarantined.Load(),
		Recoveries:  s.recoveries.Load(),
		Entries:     entries,
		Bytes:       bytes,
		Degraded:    degraded,
	}
}
