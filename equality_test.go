package xmlordb

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xmlordb/internal/ordb"
	"xmlordb/internal/workload"
)

// TestGroupByDateGroupsInstants: GROUP BY on a DATE column groups the
// values SQL `=` finds equal, which compares instants. Documents loaded a
// few milliseconds apart fall into groups of their own, as the self-join
// on DocDate pairs each only with itself, and one instant held in two
// locations, on two calendar days there, is one group.
func TestGroupByDateGroupsInstants(t *testing.T) {
	s, err := Open(workload.UniversityDTD, "University", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	west := time.FixedZone("UTC-10", -10*3600) // 09:00 UTC is 23:00 the day before there
	stamps := []time.Time{t0, t0.Add(3 * time.Millisecond), t0.Add(6 * time.Millisecond), t0.In(west)}
	s.Meta.Now = func() time.Time {
		now := stamps[0]
		stamps = stamps[1:]
		return now
	}
	doc := workload.University(workload.UniversityParams{Students: 1, CoursesPerStudent: 1, ProfsPerCourse: 1, SubjectsPerProf: 1, Seed: 1})
	for i := range 4 {
		if _, err := s.Load(doc, fmt.Sprint("d", i)); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := s.Query("SELECT a.DocID, b.DocID FROM TabMetadata a, TabMetadata b WHERE a.DocDate = b.DocDate")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := s.Query("SELECT COUNT(*) FROM TabMetadata m GROUP BY m.DocDate")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, row := range groups.Data {
		sizes = append(sizes, int(row[0].(ordb.Num)))
	}
	slices.Sort(sizes)
	// Self-pairs of four documents, plus both orders of the one instant
	// held in two locations.
	if len(pairs.Data) != 6 {
		t.Errorf("self-join on DocDate: %d pairs, want 6: %v", len(pairs.Data), pairs.Data)
	}
	if want := []int{1, 1, 2}; !slices.Equal(sizes, want) {
		t.Errorf("GROUP BY DocDate group sizes %v, want %v", sizes, want)
	}
}
