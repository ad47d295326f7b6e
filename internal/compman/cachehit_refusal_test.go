package compman

import (
	"errors"
	"strings"
	"testing"

	"gupt/internal/dp"
)

// unjournaled charges through the dataset's accountant but cannot journal
// a cache hit, like a ledger whose disk failed after the charge.
type unjournaled struct{ acct *dp.Accountant }

func (u unjournaled) Spend(label string, eps float64) error { return u.acct.Spend(label, eps) }
func (u unjournaled) RecordCacheHit(string) error           { return errors.New("disk full") }

// TestCacheHitRefusedWhenNotJournaled: a hit is still a release, so a
// repeat query or session whose cache_hit record cannot be journaled is
// refused at zero ε with an error naming the failure, never served.
func TestCacheHitRefusedWhenNotJournaled(t *testing.T) {
	reg := censusRegistry(t, 100)
	ds, err := reg.Lookup("census")
	if err != nil {
		t.Fatal(err)
	}
	ds.BindCharger(unjournaled{ds.Accountant})
	client, _ := startCachedServer(t, reg, ServerConfig{})

	req := &Request{
		Dataset:      "census",
		Program:      &ProgramSpec{Type: "mean"},
		OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}},
		Epsilon:      1,
		Seed:         3,
	}
	session := &SessionSpec{TotalEpsilon: 2, Queries: []SessionQuery{
		{Program: ProgramSpec{Type: "mean"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}, Seed: 1},
		{Program: ProgramSpec{Type: "median"}, OutputRanges: []RangeSpec{{Lo: 0, Hi: 150}}, Seed: 2},
	}}
	if _, err := client.Query(req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Session("census", session); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Query(req)
	var qe *QueryError
	if !errors.As(err, &qe) || !strings.Contains(qe.Msg, "journal") || !strings.Contains(qe.Msg, "disk full") || qe.EpsilonCharged != 0 {
		t.Errorf("unjournaled query hit: resp %+v, err %v; want a zero-ε refusal naming the journaling failure", resp, err)
	}
	if results, err := client.Session("census", session); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("unjournaled session hit: results %+v, err %v; want a refusal", results, err)
	}
	if rem, _ := client.RemainingBudget("census"); rem != 97 {
		t.Errorf("remaining = %v, want 97 (refused hits cost nothing)", rem)
	}
}
