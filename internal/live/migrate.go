package live

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"rdfsum/internal/store"
)

// walVersionV1 is the WAL format written before deletions existed: no op
// byte, every record an add batch.
const walVersionV1 = 1

// Migrate upgrades the store in dir to the formats Open reads: under the
// store's LOCK, it rewrites the current generation's v1 snapshot as v2
// (store.UpgradeFile) and re-frames its v1 WAL as v2, each file
// atomically. It reports whether any file changed. A migration cut short
// leaves each file whole in one format or the other; running Migrate
// again finishes it.
func Migrate(dir string) (bool, error) {
	if !HasState(dir) {
		return false, fmt.Errorf("live: %s holds no store (no %s manifest)", dir, manifestName)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return false, err
	}
	if lock != nil {
		defer lock.Close()
	}
	gen, err := readManifest(dir)
	if err != nil {
		return false, err
	}
	l := &Live{dir: dir}
	snapUp, err := store.UpgradeFile(l.snapshotPath(gen))
	if err != nil && !errors.Is(err, fs.ErrNotExist) { // an empty base has no snapshot
		return false, err
	}
	walUp, err := upgradeWAL(l.walPath(gen))
	return snapUp || walUp, err
}

// upgradeWAL rewrites the v1 WAL at path as v2, atomically, prepending the
// add op byte to each record, and reports whether it did; a v2 WAL is left
// alone. A torn or corrupt tail is dropped, as replay would drop it.
func upgradeWAL(path string) (bool, error) {
	f, rr, v, err := openWAL(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	switch v {
	case WALVersion:
		return false, nil
	case walVersionV1:
	default:
		return false, errWALVersion(v)
	}
	return true, store.WriteFileAtomic(path, true, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		bw.Write(append([]byte(walMagic), WALVersion)) //nolint:errcheck // bufio defers errors to Flush
		for {
			payload, err := rr.frame()
			if err != nil {
				break // clean end or torn tail
			}
			record := append([]byte{byte(OpAdd)}, payload...)
			if _, _, err := decodeBatch(record); err != nil {
				break // corrupt tail
			}
			if err := writeRecord(bw, record); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}
