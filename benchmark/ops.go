package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
)

// verb is one kind of request the harness sends and times.
type verb uint8

const (
	vLoad verb = iota
	vBulkLoad
	vDelete
	vSQLPoint
	vSQLJoin
	vXPath
	vRetrieve
	numVerbs
)

var verbNames = [numVerbs]string{"load", "bulkload", "delete", "sql_point", "sql_join", "xpath", "retrieve"}

func (v verb) String() string { return verbNames[v] }

// Query texts. sql_join is the paper's Section 4.1 query over four levels
// of nested collections; sql_point unnests the students of one document
// found through the DocID index; on the REF mapping the point query
// follows one REF from the document table instead.
const (
	sqlPointNested = "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st WHERE u.DocID = %d"
	sqlPointRef    = "SELECT d.attrUniversity.attrStudyCourse FROM TabUniversityDoc d WHERE d.DocID = %d"
	sqlJoin        = "SELECT st.attrLName FROM TabUniversity u, TABLE(u.attrStudent) st, TABLE(st.attrCourse) c, TABLE(c.attrProfessor) p WHERE p.attrPName = '%s'"
	xpathStudent   = "/University/Student[@StudNr='%s']/LName"
	countNested    = "SELECT COUNT(*) FROM TabUniversity"
	countRef       = "SELECT COUNT(*) FROM TabUniversityDoc"

	// pointTargets is the handful of documents sql_point addresses: few
	// enough texts that they always fit the statement cache.
	pointTargets = 8
)

// readOp is one generated read request with its expected outcome.
type readOp struct {
	verb   verb
	text   string // SQL or XPath text
	target target // the document a retrieve or sql_point addresses
	want   int    // expected row count of a query
}

// readMix generates one client's read requests. The verb order is a
// fixed-proportion block shuffled per block, not an independent draw per
// request: with a tenth of the requests costing a hundred times the
// others, binomial noise in their share would move throughput by more
// than the regression bound.
type readMix struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	corp  *corpus
	ref   bool
	block []verb
	pos   int
	point func(k int) target      // the k-th document sql_point addresses
	pick  func(*rand.Rand) target // a stored document for retrieve
}

// Verb proportions per block of requests.
var (
	readMixBlock   = []verb{vSQLPoint, vSQLPoint, vSQLPoint, vSQLPoint, vSQLJoin, vXPath, vRetrieve, vRetrieve, vRetrieve, vRetrieve}
	mixedReadBlock = []verb{vRetrieve, vRetrieve, vRetrieve, vRetrieve, vSQLPoint}
)

func newReadMix(seed int64, client int, corp *corpus, ref bool, point func(int) target, pick func(*rand.Rand) target) *readMix {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	block := readMixBlock
	if ref {
		block = mixedReadBlock
	}
	g := &readMix{
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfSkew, 1, literalDomain-1),
		corp:  corp,
		ref:   ref,
		block: append([]verb(nil), block...),
		point: point,
		pick:  pick,
	}
	g.pos = len(g.block)
	return g
}

func (g *readMix) next() readOp {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	v := g.block[g.pos]
	g.pos++
	switch v {
	case vSQLPoint:
		t := g.point(g.rng.Intn(pointTargets))
		if g.ref {
			return readOp{verb: v, text: fmt.Sprintf(sqlPointRef, t.docID), target: t, want: 1}
		}
		return readOp{verb: v, text: fmt.Sprintf(sqlPointNested, t.docID), target: t, want: g.corp.docs[t.doc].students}
	case vSQLJoin:
		name := profLiteral(int(g.zipf.Uint64()))
		return readOp{verb: v, text: fmt.Sprintf(sqlJoin, name), want: g.corp.profName[name]}
	case vXPath:
		nr := studLiteral(int(g.zipf.Uint64()))
		return readOp{verb: v, text: fmt.Sprintf(xpathStudent, nr), want: g.corp.studNr[nr]}
	default:
		return readOp{verb: vRetrieve, target: g.pick(g.rng)}
	}
}

// sequenceHash identifies the first n requests of a client: same seed,
// same sequence.
func (g *readMix) sequenceHash(n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		op := g.next()
		fmt.Fprintf(h, "%d|%s|%d|%d\n", op.verb, op.text, op.target.doc, op.want)
	}
	return hex.EncodeToString(h.Sum(nil))
}
