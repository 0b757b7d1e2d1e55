package wal

// FileStoreOver builds a FileStore whose file calls all go to f: the
// crash-state tests put a model of the page cache there.
func FileStoreOver(f file) *FileStore { return &FileStore{f: f} }
