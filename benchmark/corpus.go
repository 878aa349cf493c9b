package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"xmlordb/internal/workload"
	"xmlordb/internal/xmldom"
)

// Corpus shape. Every document is an Appendix A University document:
// 1-7 students (about 4.7 KB of XML on average) plus one document in
// fifty with 40 students, so that the 99th percentile of any
// per-document latency falls inside a population the generator fixes
// instead of in scheduler noise. The number of sizes is odd on purpose:
// cost grows with the student count, so latencies form one cluster per
// count, and with an even number of counts the median would sit on the
// boundary between two clusters and jump between them from run to run.
const (
	coursesPerStudent = 3
	profsPerCourse    = 2
	subjectsPerProf   = 2
	maxStudents       = 7
	largeStudents     = 40
	largeEvery        = 50

	// literalDomain is the number of distinct StudNr values and of
	// distinct professor names. Documents draw them uniformly; queries
	// draw them Zipf-skewed, so the 512-entry statement cache of
	// internal/sql sees both hits and misses.
	literalDomain = 2048
	zipfSkew      = 1.1

	universityRoot = "University"
)

func studLiteral(k int) string { return fmt.Sprintf("%05d", 20000+k) }
func profLiteral(k int) string { return fmt.Sprintf("Prof%04d", k) }

// document is one generated input with the facts the checks need.
type document struct {
	xml      string
	students int
}

// corpus is the generated input of one run together with the ground
// truth the correctness gate compares query results against.
type corpus struct {
	docs  []document
	bytes int64
	// studNr and profName count, per literal, the Student elements and
	// Professor elements of the whole corpus that carry it: the row
	// counts of the xpath and sql_join queries when every document of
	// the corpus is stored.
	studNr   map[string]int
	profName map[string]int
}

// newCorpus generates n documents from the seed. Student counts are
// stratified: every run of fifty documents holds each count 1-7 seven
// times and one large document, and only the order inside the run is
// random. Two seeds therefore give corpora of the same size, and any
// stretch of a few hundred consecutive documents costs about the same,
// so neither the seed nor where a window happens to end moves throughput.
func newCorpus(seed int64, n int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, n)
	for lo := 0; lo < n; lo += largeEvery {
		run := counts[lo:min(lo+largeEvery, n)]
		for i := range run {
			run[i] = 1 + i%maxStudents
		}
		if len(run) == largeEvery {
			run[largeEvery-1] = largeStudents
		}
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	}

	c := &corpus{docs: make([]document, n), studNr: map[string]int{}, profName: map[string]int{}}
	for i, students := range counts {
		doc := workload.University(workload.UniversityParams{
			Students:          students,
			CoursesPerStudent: coursesPerStudent,
			ProfsPerCourse:    profsPerCourse,
			SubjectsPerProf:   subjectsPerProf,
			Seed:              rng.Int63(),
		})
		for _, st := range doc.Root().ChildElementsNamed("Student") {
			nr := studLiteral(rng.Intn(literalDomain))
			st.SetAttr("StudNr", nr)
			c.studNr[nr]++
			for _, course := range st.ChildElementsNamed("Course") {
				for _, prof := range course.ChildElementsNamed("Professor") {
					name := profLiteral(rng.Intn(literalDomain))
					prof.FirstChildNamed("PName").SetChildren([]xmldom.Node{xmldom.NewText(name)})
					c.profName[name]++
				}
			}
		}
		xml := xmldom.Serialize(doc)
		c.docs[i] = document{xml: xml, students: students}
		c.bytes += int64(len(xml))
	}
	return c
}

// hash identifies the corpus bytes: same seed, same hash.
func (c *corpus) hash() string {
	h := sha256.New()
	for _, d := range c.docs {
		h.Write([]byte(d.xml))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// docName is the name document number seq is loaded under.
func docName(seq int) string { return fmt.Sprintf("doc%07d.xml", seq) }
