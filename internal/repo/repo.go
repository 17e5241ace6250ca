// Package repo implements the Digibox scene repository (§3.4): a
// content-addressed, versioned store for mock/scene kinds, setup
// configurations, and trace archives, with push/pull between a local
// repository and a remote.
//
// The paper uses Git + GitHub as the repository following
// Infrastructure-as-Code practice; this package substitutes a
// filesystem-backed object store with the same operational surface
// (commit a new version, push it, pull it elsewhere, recreate). Blobs
// are addressed by SHA-256, so push/pull transfers are idempotent and
// verifiable.
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vet"
)

// RefClass partitions the reference namespace.
type RefClass string

const (
	// Kinds holds mock/scene type definitions ("Lamp/v1").
	Kinds RefClass = "kinds"
	// Setups holds committed testbed configurations ("smartbuilding/v3").
	Setups RefClass = "setups"
	// Traces holds shared trace archives ("building-trace/v1").
	Traces RefClass = "traces"
	// Profiles holds device-population traffic profiles, authored or
	// fitted by capture ("cityscape/v1").
	Profiles RefClass = "profiles"
)

var refClasses = []RefClass{Kinds, Setups, Traces, Profiles}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ErrNotFound is returned when an object or ref does not exist.
var ErrNotFound = errors.New("repo: not found")

// ErrVetFailed is returned by Commit when a setup carries
// error-severity vet diagnostics; ForceCommit bypasses the gate.
var ErrVetFailed = errors.New("repo: setup fails vet")

// Repo is a repository rooted at a directory. Safe for use by multiple
// goroutines as long as they operate on distinct refs (matching Git's
// model); hash-addressed object writes are always safe.
type Repo struct {
	dir string
}

// Open creates (if needed) and opens a repository at dir.
func Open(dir string) (*Repo, error) {
	for _, sub := range []string{"objects"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	for _, c := range refClasses {
		if err := os.MkdirAll(filepath.Join(dir, "refs", string(c)), 0o755); err != nil {
			return nil, err
		}
	}
	return &Repo{dir: dir}, nil
}

// PutObject stores a blob and returns its hash. Idempotent.
func (r *Repo) PutObject(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	path := r.objectPath(hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return hash, nil
}

// GetObject loads a blob by hash, verifying integrity.
func (r *Repo) GetObject(hash string) ([]byte, error) {
	data, err := os.ReadFile(r.objectPath(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: object %s", ErrNotFound, hash)
		}
		return nil, err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != hash {
		return nil, fmt.Errorf("repo: object %s corrupt", hash)
	}
	return data, nil
}

func (r *Repo) objectPath(hash string) string {
	if len(hash) < 3 {
		return filepath.Join(r.dir, "objects", "xx", hash)
	}
	return filepath.Join(r.dir, "objects", hash[:2], hash)
}

// Commit stores data as the next version of class/name and returns the
// assigned version ("v1", "v2", ...). If the content is identical to
// the latest version, that version is returned without creating a new
// one (committing an unchanged setup is a no-op, like Git).
//
// Setup and profile commits pass through the vet pre-commit gate: a
// setup (or device profile) with error-severity diagnostics is
// refused. ForceCommit bypasses the gate.
func (r *Repo) Commit(class RefClass, name string, data []byte) (string, error) {
	return r.commit(class, name, data, false)
}

// ForceCommit is Commit without the vet pre-commit gate ("dbox commit
// -f"): the setup is stored even if vet reports error diagnostics.
func (r *Repo) ForceCommit(class RefClass, name string, data []byte) (string, error) {
	return r.commit(class, name, data, true)
}

func (r *Repo) commit(class RefClass, name string, data []byte, force bool) (string, error) {
	if !nameRe.MatchString(name) {
		return "", fmt.Errorf("repo: invalid name %q", name)
	}
	if class == Setups && !force {
		if diags := vet.Errors(vet.RunData(name, data, r.KindSource())); len(diags) > 0 {
			return "", fmt.Errorf("%w: %s (use force to commit anyway): %s", ErrVetFailed, name, vet.Summary(diags))
		}
	}
	if class == Profiles && !force {
		if diags := vet.Errors(vet.RunProfileData(name, data)); len(diags) > 0 {
			return "", fmt.Errorf("%w: %s (use force to commit anyway): %s", ErrVetFailed, name, vet.Summary(diags))
		}
	}
	hash, err := r.PutObject(data)
	if err != nil {
		return "", err
	}
	latest, err := r.Latest(class, name)
	if err == nil {
		cur, err := r.Resolve(class, name, latest)
		if err == nil && cur == hash {
			return latest, nil
		}
	}
	next := "v1"
	if latest != "" {
		n, _ := strconv.Atoi(strings.TrimPrefix(latest, "v"))
		next = "v" + strconv.Itoa(n+1)
	}
	if err := r.Tag(class, name, next, hash); err != nil {
		return "", err
	}
	return next, nil
}

// Tag binds class/name/version to an object hash. Existing versions
// are immutable: re-tagging an existing version to a different hash
// fails.
func (r *Repo) Tag(class RefClass, name, version, hash string) error {
	if !nameRe.MatchString(name) || !nameRe.MatchString(version) {
		return fmt.Errorf("repo: invalid ref %s/%s", name, version)
	}
	refDir := filepath.Join(r.dir, "refs", string(class), name)
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return err
	}
	refPath := filepath.Join(refDir, version)
	if existing, err := os.ReadFile(refPath); err == nil {
		if strings.TrimSpace(string(existing)) == hash {
			return nil
		}
		return fmt.Errorf("repo: %s %s/%s already exists with different content", class, name, version)
	}
	return os.WriteFile(refPath, []byte(hash+"\n"), 0o644)
}

// Resolve returns the object hash of class/name/version. An empty
// version resolves the latest.
func (r *Repo) Resolve(class RefClass, name, version string) (string, error) {
	if version == "" {
		latest, err := r.Latest(class, name)
		if err != nil {
			return "", err
		}
		version = latest
	}
	data, err := os.ReadFile(filepath.Join(r.dir, "refs", string(class), name, version))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %s %s/%s", ErrNotFound, class, name, version)
		}
		return "", err
	}
	return strings.TrimSpace(string(data)), nil
}

// Get loads the content of class/name/version (empty version = latest).
func (r *Repo) Get(class RefClass, name, version string) ([]byte, error) {
	hash, err := r.Resolve(class, name, version)
	if err != nil {
		return nil, err
	}
	return r.GetObject(hash)
}

// Versions lists the versions of class/name in ascending numeric order.
func (r *Repo) Versions(class RefClass, name string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(r.dir, "refs", string(class), name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s %s", ErrNotFound, class, name)
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Slice(out, func(i, j int) bool { return versionNum(out[i]) < versionNum(out[j]) })
	return out, nil
}

func versionNum(v string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(v, "v"))
	if err != nil {
		return 0
	}
	return n
}

// Latest returns the newest version of class/name ("" with ErrNotFound
// if none).
func (r *Repo) Latest(class RefClass, name string) (string, error) {
	vs, err := r.Versions(class, name)
	if err != nil {
		return "", err
	}
	if len(vs) == 0 {
		return "", fmt.Errorf("%w: %s %s has no versions", ErrNotFound, class, name)
	}
	return vs[len(vs)-1], nil
}

// List returns all names under a class, sorted.
func (r *Repo) List(class RefClass) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(r.dir, "refs", string(class)))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// KindSource returns a vet.KindSource view of the repository's kinds
// class, for resolving the schema contracts a setup's kind references
// pin during analysis.
func (r *Repo) KindSource() vet.KindSource {
	return repoKindSource{r}
}

type repoKindSource struct{ r *Repo }

func (k repoKindSource) KindDoc(typ, version string) ([]byte, error) {
	return k.r.Get(Kinds, typ, version)
}

// Push copies class/name (all versions, with objects) to the remote
// repository — "dbox push". Existing identical versions are skipped;
// conflicting versions abort.
func (r *Repo) Push(remote *Repo, class RefClass, name string) error {
	return transfer(r, remote, class, name)
}

// Pull copies class/name (all versions, with objects) from the remote
// repository — "dbox pull".
func (r *Repo) Pull(remote *Repo, class RefClass, name string) error {
	return transfer(remote, r, class, name)
}

func transfer(src, dst *Repo, class RefClass, name string) error {
	versions, err := src.Versions(class, name)
	if err != nil {
		return err
	}
	for _, v := range versions {
		hash, err := src.Resolve(class, name, v)
		if err != nil {
			return err
		}
		data, err := src.GetObject(hash)
		if err != nil {
			return err
		}
		if _, err := dst.PutObject(data); err != nil {
			return err
		}
		if err := dst.Tag(class, name, v, hash); err != nil {
			return err
		}
	}
	return nil
}
