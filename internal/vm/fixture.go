// Package vm tests the compiled evaluator from outside internal/engine,
// through the surface the rest of the module uses: engine.Compile,
// Program.Run and Program.Disassemble. The unit battery and the fuzz
// target check every compiled construct against the DOM reference.
//
// Its one non-test file is the fixture those tests share with
// internal/engine's unit tests: the store they run on and the reference
// they are held to. It imports no evaluator, so the engine's own tests
// can import it.
package vm

import (
	"fmt"
	"testing"

	"xquec/internal/baselines/galaxlike"
	"xquec/internal/datagen"
	"xquec/internal/storage"
)

var (
	testStore *storage.Store
	testRef   *galaxlike.Engine // the DOM reference over the same document
)

// Store returns the unit battery's store, XMark at scale 0.04 and seed
// 7, built on first use together with the DOM reference over the same
// document.
func Store(t testing.TB) *storage.Store {
	t.Helper()
	if testStore == nil {
		doc := datagen.XMark(datagen.XMarkConfig{Scale: 0.04, Seed: 7})
		s, err := storage.Load(doc, storage.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testStore, testRef = s, galaxlike.New(doc)
		testRef.ParsePerQuery = false
	}
	return testStore
}

// EvalRef runs the DOM reference evaluator, the oracle, over the
// document of the store.
func EvalRef(t testing.TB, q string) (string, error) {
	Store(t)
	res, err := testRef.Query(q)
	if err != nil {
		return "", err
	}
	return res.SerializeXML()
}

// Differ compares a program's result with the oracle's: both fail, or
// neither does and the outputs are the same. It returns what differs, ""
// if nothing.
func Differ(want string, wErr error, got string, vErr error) string {
	switch {
	case (wErr == nil) != (vErr == nil):
		return fmt.Sprintf("reference err=%v, vm err=%v", wErr, vErr)
	case wErr == nil && got != want:
		return fmt.Sprintf("output mismatch\n--- reference ---\n%s\n--- vm ---\n%s", want, got)
	}
	return ""
}
