package core

import (
	"fmt"

	"repro/internal/iac"
	"repro/internal/model"
	"repro/internal/repo"
	"repro/internal/trace"
	"repro/internal/vet"
)

// errNoRepo is returned when a repository verb is used without a
// configured repository.
func (tb *Testbed) requireRepos(remote bool) error {
	if tb.localRepo == nil {
		return fmt.Errorf("core: no local repository configured (Options.LocalRepoDir)")
	}
	if remote && tb.remoteRepo == nil {
		return fmt.Errorf("core: no remote repository configured (Options.RemoteRepoDir)")
	}
	return nil
}

// CommitKind implements "dbox commit TYPE": store the kind's schema
// definition as a new version in the local repository. The behaviour
// code ships with the Digibox binary (the analogue of the container
// image being available in the image registry); the committed document
// is the declarative contract others validate against.
func (tb *Testbed) CommitKind(typ string) (string, error) {
	if err := tb.requireRepos(false); err != nil {
		return "", err
	}
	kind, ok := tb.Registry.Get(typ)
	if !ok {
		return "", fmt.Errorf("core: type %q not registered", typ)
	}
	data, err := model.EncodeSchema(kind.Schema)
	if err != nil {
		return "", err
	}
	return tb.localRepo.Commit(repo.Kinds, typ, data)
}

// CommitScene implements "dbox commit NAME" on a scene: capture the
// scene's attach subtree as a setup configuration (§3.4 "create a new
// version of the scene that includes all the mocks or scenes attached
// to it") and commit it, along with every kind it references. The
// repository's pre-commit vet gate rejects setups with error-severity
// diagnostics; CommitSceneForce bypasses it.
func (tb *Testbed) CommitScene(sceneName string) (string, error) {
	return tb.commitScene(sceneName, false)
}

// CommitSceneForce implements "dbox commit -f NAME": commit even when
// the vet gate finds error-severity diagnostics.
func (tb *Testbed) CommitSceneForce(sceneName string) (string, error) {
	return tb.commitScene(sceneName, true)
}

func (tb *Testbed) commitScene(sceneName string, force bool) (string, error) {
	if err := tb.requireRepos(false); err != nil {
		return "", err
	}
	names, err := tb.Subtree(sceneName)
	if err != nil {
		return "", err
	}
	setup := &iac.Setup{Name: sceneName, Kinds: map[string]string{}}
	for _, n := range names {
		doc, _, ok := tb.Store.Get(n)
		if !ok {
			continue
		}
		setup.Models = append(setup.Models, doc)
		typ := doc.Type()
		if _, done := setup.Kinds[typ]; !done {
			ver, err := tb.CommitKind(typ)
			if err != nil {
				return "", err
			}
			setup.Kinds[typ] = ver
		}
	}
	data, err := iac.Marshal(setup)
	if err != nil {
		return "", err
	}
	if force {
		return tb.localRepo.ForceCommit(repo.Setups, sceneName, data)
	}
	return tb.localRepo.Commit(repo.Setups, sceneName, data)
}

// Push implements "dbox push NAME": publish a committed setup (and the
// kinds it references) to the remote repository.
func (tb *Testbed) Push(setupName string) error {
	if err := tb.requireRepos(true); err != nil {
		return err
	}
	data, err := tb.localRepo.Get(repo.Setups, setupName, "")
	if err != nil {
		return err
	}
	setup, err := iac.Unmarshal(data)
	if err != nil {
		return err
	}
	for typ := range setup.Kinds {
		if err := tb.localRepo.Push(tb.remoteRepo, repo.Kinds, typ); err != nil {
			return fmt.Errorf("core: push kind %s: %w", typ, err)
		}
	}
	return tb.localRepo.Push(tb.remoteRepo, repo.Setups, setupName)
}

// Pull implements "dbox pull NAME": fetch a setup (and its kinds) from
// the remote repository into the local one.
func (tb *Testbed) Pull(setupName string) error {
	if err := tb.requireRepos(true); err != nil {
		return err
	}
	if err := tb.localRepo.Pull(tb.remoteRepo, repo.Setups, setupName); err != nil {
		return err
	}
	data, err := tb.localRepo.Get(repo.Setups, setupName, "")
	if err != nil {
		return err
	}
	setup, err := iac.Unmarshal(data)
	if err != nil {
		return err
	}
	for typ := range setup.Kinds {
		if err := tb.localRepo.Pull(tb.remoteRepo, repo.Kinds, typ); err != nil {
			return fmt.Errorf("core: pull kind %s: %w", typ, err)
		}
	}
	return nil
}

// Recreate instantiates a setup from the local repository (§3.5
// "parse the shared configuration files, run the mocks and scenes and
// attach them accordingly"). Version "" means latest. Every referenced
// kind must be registered (the behaviour "image"); its committed
// schema must match the registered one, which is the pulled-image
// integrity check.
func (tb *Testbed) Recreate(setupName, version string) error {
	if err := tb.requireRepos(false); err != nil {
		return err
	}
	data, err := tb.localRepo.Get(repo.Setups, setupName, version)
	if err != nil {
		return err
	}
	// Deploy-path vet: a setup that slipped past the commit gate (hand
	// tagged, pulled from an older remote) must not reach the cluster.
	if diags := vet.Errors(vet.RunData(setupName, data, tb.localRepo.KindSource())); len(diags) > 0 {
		return fmt.Errorf("core: setup %s fails vet: %s", setupName, vet.Summary(diags))
	}
	setup, err := iac.Unmarshal(data)
	if err != nil {
		return err
	}
	// Verify kinds: registered locally and schema-compatible.
	for typ, ver := range setup.Kinds {
		kind, ok := tb.Registry.Get(typ)
		if !ok {
			return fmt.Errorf("core: setup needs type %q which is not registered", typ)
		}
		committed, err := tb.localRepo.Get(repo.Kinds, typ, ver)
		if err != nil {
			return fmt.Errorf("core: setup references %s/%s: %w", typ, ver, err)
		}
		local, err := model.EncodeSchema(kind.Schema)
		if err != nil {
			return err
		}
		if string(local) != string(committed) {
			return fmt.Errorf("core: registered schema for %q differs from committed %s (incompatible image)", typ, ver)
		}
	}
	byName := map[string]model.Doc{}
	for _, m := range setup.Models {
		byName[m.Name()] = m
	}
	for _, name := range iac.CreationOrder(setup) {
		doc, ok := byName[name]
		if !ok {
			continue
		}
		if err := tb.RunDoc(doc.DeepCopy()); err != nil {
			return fmt.Errorf("core: recreate %s: %w", name, err)
		}
	}
	return nil
}

// PushTrace publishes a trace archive under a name; PullTrace fetches
// it. Traces ride the same repository as setups (§3.5 sharing).
func (tb *Testbed) PushTrace(name string) (string, error) {
	if err := tb.requireRepos(true); err != nil {
		return "", err
	}
	data, err := tb.Log.ArchiveBytes()
	if err != nil {
		return "", err
	}
	ver, err := tb.localRepo.Commit(repo.Traces, name, data)
	if err != nil {
		return "", err
	}
	if err := tb.localRepo.Push(tb.remoteRepo, repo.Traces, name); err != nil {
		return "", err
	}
	return ver, nil
}

// PullTrace fetches a shared trace archive, live or recorded, and
// parses its records.
func (tb *Testbed) PullTrace(name, version string) ([]trace.Record, error) {
	if err := tb.requireRepos(true); err != nil {
		return nil, err
	}
	if err := tb.localRepo.Pull(tb.remoteRepo, repo.Traces, name); err != nil {
		return nil, err
	}
	data, err := tb.localRepo.Get(repo.Traces, name, version)
	if err != nil {
		return nil, err
	}
	ar, err := trace.ParseArchiveBytes(data)
	if err != nil {
		return nil, err
	}
	return ar.Records, nil
}
