package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Store is stable storage: once Append returns, the block survives a
// site crash. Blocks returns every durable block in append order. A
// block is opaque to the store; the Log fills each with the framed
// records of one device write (see record.go).
//
// MemStore survives *simulated* crashes (the site object is torn down
// and rebuilt around the same store); FileStore survives real ones.
type Store interface {
	Append(block []byte) error
	Blocks() ([][]byte, error)
	// Truncate drops the first n blocks — the prefix a checkpoint has
	// absorbed into the page image — or refuses, leaving the store as
	// it was, where it cannot do so crash-safely.
	Truncate(n int) error
	// DropTail discards the last n blocks — recovery's repair of a
	// torn tail, so that records appended after the repair never sit
	// behind a corrupt block.
	DropTail(n int) error
}

// MemStore is an in-memory Store used by simulations: durability is
// modeled, latency is charged by the Log, and the contents survive a
// simulated crash because the experiment keeps the store while
// discarding the site built around it.
type MemStore struct {
	mu     sync.Mutex
	blocks [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append copies block into the store.
func (s *MemStore) Append(block []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(block))
	copy(cp, block)
	s.blocks = append(s.blocks, cp)
	return nil
}

// Blocks returns copies of all durable blocks in append order.
func (s *MemStore) Blocks() ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.blocks))
	for i, b := range s.blocks {
		out[i] = make([]byte, len(b))
		copy(out[i], b)
	}
	return out, nil
}

// Truncate drops the first n blocks.
func (s *MemStore) Truncate(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		return nil
	}
	if n > len(s.blocks) {
		n = len(s.blocks)
	}
	s.blocks = append([][]byte(nil), s.blocks[n:]...)
	return nil
}

// DropTail discards the last n blocks.
func (s *MemStore) DropTail(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		return nil
	}
	if n > len(s.blocks) {
		n = len(s.blocks)
	}
	s.blocks = s.blocks[:len(s.blocks)-n]
	return nil
}

// Len reports the number of durable blocks.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// FileStore is a Store over a single append-only file with
// length-prefixed blocks. Every Append is one write and one fsync.
type FileStore struct {
	mu sync.Mutex
	f  file
	// torn is the final block the last read found cut short by a torn
	// write, or nil. The next Append rewrites it first (mendLocked).
	torn *tornBlock
	// starts is where each block the last read returned begins, or nil
	// once a write may have moved them: what DropTail cuts at.
	starts []int64
}

// tornBlock is a final block whose length prefix promises more bytes
// than reached the file: where it starts, and what of its payload is
// there.
type tornBlock struct {
	at      int64
	payload []byte
}

// file is every call a FileStore makes on its log file: *os.File in
// production, a model of the page cache in the crash-state tests.
type file interface {
	io.Writer
	io.ReaderAt
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// OpenFileStore opens (creating if necessary) the log file at path.
// The file is opened O_APPEND, so writes land at its end wherever
// reads have left the offset. An empty file — one it created, or one
// an open that failed here created — has its directory synced before
// it returns: a new file's name is not durable until its directory's
// entry is, and a crash before that loses the whole log, every fsync
// of the file notwithstanding.
func OpenFileStore(path string) (*FileStore, error) {
	return openFileStore(path, func(name string, flag int) (file, error) {
		return os.OpenFile(name, flag, 0o644)
	})
}

// openFileStore is OpenFileStore with every open, the directory's
// included, made through open.
func openFileStore(path string, open func(name string, flag int) (file, error)) (*FileStore, error) {
	f, err := open(path, os.O_RDWR|os.O_CREATE|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		err = syncDir(open, filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	return &FileStore{f: f}, nil
}

// syncDir makes the entries of directory dir durable.
func syncDir(open func(name string, flag int) (file, error), dir string) error {
	d, err := open(dir, os.O_RDONLY)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// appendPrefixed appends block to dst behind its 4-byte length.
func appendPrefixed(dst, block []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(block)))
	return append(dst, block...)
}

// Append writes block behind its length prefix in a single write, then
// syncs: one device write per call.
func (s *FileStore) Append(block []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.starts = nil
	if err := s.mendLocked(); err != nil {
		return err
	}
	return s.write(appendPrefixed(make([]byte, 0, 4+len(block)), block))
}

// mendLocked rewrites the torn final block the last read found, if
// any, under an honest length: the file is cut back to where the block
// starts and the bytes that did survive are re-appended, so the file
// holds exactly what that read returned and no append sits behind the
// tear. Callers hold s.mu.
func (s *FileStore) mendLocked() error {
	if s.torn == nil {
		return nil
	}
	if err := s.f.Truncate(s.torn.at); err != nil {
		return fmt.Errorf("wal: cutting torn tail: %w", err)
	}
	err := s.f.Sync()
	if len(s.torn.payload) > 0 { // else torn inside the length prefix: nothing to keep
		err = s.write(appendPrefixed(nil, s.torn.payload))
	}
	if err == nil {
		s.torn = nil
	}
	return err
}

// write appends buf to the file and syncs. Callers hold s.mu.
func (s *FileStore) write(buf []byte) error {
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Blocks re-reads the file from the start, and writes nothing: the
// log decides what damage means before anything on disk changes. A
// final block cut short by a torn write — its length prefix promises
// more bytes than reached the file — is returned as whatever of its
// payload is there. The log salvages whole records from it and drops
// the rest with DropTail; should it keep the block whole, the next
// Append first rewrites it under an honest length.
func (s *FileStore) Blocks() ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocksLocked()
}

// blocksLocked is Blocks for a caller that holds s.mu.
func (s *FileStore) blocksLocked() ([][]byte, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: stat: %w", err)
	}
	blocks, starts, whole, err := readBlocks(io.NewSectionReader(s.f, 0, fi.Size()), fi.Size())
	if err != nil {
		return nil, err
	}
	s.starts, s.torn = starts, nil
	if whole < fi.Size() {
		s.torn = &tornBlock{at: whole, payload: blocks[len(blocks)-1]}
	}
	return blocks, nil
}

// readBlocks parses size bytes of length-prefixed blocks from r,
// reports the offset each begins at, and how many of those bytes whole
// blocks account for. When that is less than size the file ends in a
// torn block, and the last block returned is whatever of its payload
// is there. Only running out of bytes is a torn tail; any other read
// error is the device failing and is returned, never mistaken for the
// end of the log. A block's length is bounded by the bytes left, so a
// corrupt prefix cannot demand gigabytes.
func readBlocks(r io.Reader, size int64) (blocks [][]byte, starts []int64, whole int64, _ error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for whole < size {
		starts = append(starts, whole)
		var hdr [4]byte
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return append(blocks, nil), starts, whole, nil
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("wal: read: %w", err)
		}
		want := int64(binary.BigEndian.Uint32(hdr[:]))
		block := make([]byte, min(want, size-whole-4))
		n, err := io.ReadFull(br, block)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, nil, 0, fmt.Errorf("wal: read: %w", err)
		}
		blocks = append(blocks, block[:n])
		if int64(n) < want {
			return blocks, starts, whole, nil
		}
		whole += 4 + want
	}
	return blocks, starts, whole, nil
}

// Truncate refuses to drop blocks. A file has no crash-safe way to
// lose its head in place — rewriting it leaves a window in which a
// crash loses every kept block — and only the simulator checkpoints
// (over a MemStore). The segmented log (ROADMAP item 4(b)) brings the
// safe truncation, unlinking whole segments, before a real node
// checkpoints.
func (s *FileStore) Truncate(n int) error {
	if n <= 0 {
		return nil
	}
	return fmt.Errorf("wal: file store cannot truncate %d blocks: no crash-safe prefix drop", n)
}

// DropTail discards the last n blocks by cutting the file where the
// first of them starts: one ftruncate and one fsync, under one hold of
// s.mu so no append can land between the read and the cut. The cut is
// where the last read saw that block begin — the recovery that repairs
// a torn tail has just read the file, so nothing is read twice — and
// the file is read again only if a write has happened since. A crash
// anywhere inside leaves either the whole file or exactly the kept
// blocks, never less.
func (s *FileStore) DropTail(n int) error {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.starts == nil {
		if _, err := s.blocksLocked(); err != nil {
			return err
		}
	}
	starts, keep := s.starts, max(0, len(s.starts)-n)
	var cut int64 // an empty file's, or where the first dropped block begins
	if keep < len(starts) {
		cut = starts[keep]
	}
	s.starts = nil // until the cut has landed
	if err := s.f.Truncate(cut); err != nil {
		return fmt.Errorf("wal: dropping tail: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	s.starts = starts[:keep]
	s.torn = nil // a torn block is the last one: it went with the tail
	return nil
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }
