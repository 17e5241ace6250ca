package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateTopicName(t *testing.T) {
	good := []string{"a", "a/b", "home/room 1/lamp", "$SYS/broker", "a//b"}
	for _, s := range good {
		if err := ValidateTopicName(s); err != nil {
			t.Errorf("ValidateTopicName(%q) = %v", s, err)
		}
	}
	bad := []string{"", "a/+", "#", "a/#", "a\x00b", strings.Repeat("x", 70000)}
	for _, s := range bad {
		if err := ValidateTopicName(s); err == nil {
			t.Errorf("ValidateTopicName(%q) passed", s)
		}
	}
}

func TestValidateTopicFilter(t *testing.T) {
	good := []string{"a", "a/b", "+", "#", "a/+/b", "a/#", "+/+", "a/+/#"}
	for _, s := range good {
		if err := ValidateTopicFilter(s); err != nil {
			t.Errorf("ValidateTopicFilter(%q) = %v", s, err)
		}
	}
	bad := []string{"", "a/#/b", "#/a", "a+", "a/b+", "a/#b", "a\x00"}
	for _, s := range bad {
		if err := ValidateTopicFilter(s); err == nil {
			t.Errorf("ValidateTopicFilter(%q) passed", s)
		}
	}
}

func TestMatchTopic(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/+", "a/b", true},
		{"a/+", "a/b/c", false},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true}, // '#' matches the parent level
		{"#", "a/b", true},
		{"+/+", "a/b", true},
		{"+/+", "a", false},
		{"+", "a", true},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"#", "$SYS/x", false}, // $-topics hidden from wildcards
		{"+/x", "$SYS/x", false},
		{"$SYS/#", "$SYS/x", true},
		{"a//b", "a//b", true},
		{"a/+/b", "a//b", true}, // '+' matches the empty level
	}
	for _, c := range cases {
		if got := MatchTopic(c.filter, c.topic); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

// Wildcard edge cases pinned as a regression suite: '#' at the root,
// '+' adjacent to '#', empty levels, and $-prefixed topics.
func TestMatchTopicWildcardEdgeCases(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		// '#' at the root matches everything not $-prefixed, including
		// topics with empty levels.
		{"#", "a", true},
		{"#", "a/b/c/d", true},
		{"#", "/", true},
		{"#", "", true},
		{"#", "$internal", false},
		// '+' adjacent to '#'.
		{"+/#", "a", true}, // '+' consumes "a", then '#' matches the parent
		{"+/#", "a/b", true},
		{"+/#", "a/b/c", true},
		{"+/#", "/", true},     // '+' matches the empty first level
		{"a/+/#", "a/b", true}, // '#' matches the parent "a/b"
		{"a/+/#", "a", false},  // nothing for '+' to consume
		{"+/+/#", "a/b", true}, // parent-level '#': "a/b" has exactly 2 levels
		{"+/+/#", "a", false},
		// Empty levels are real levels.
		{"a//b", "a/b", false},
		{"a/+/b", "a//b", true},
		{"+", "", true}, // "" is one empty level
		{"+/+", "/", true},
		{"a/b/", "a/b", false},  // trailing empty level is distinct
		{"a/b/+", "a/b/", true}, // '+' matches the trailing empty level
		// $-prefixed topics are invisible to first-level wildcards only.
		{"$SYS/#", "$SYS/broker/load", true},
		{"$SYS/+", "$SYS/x", true},
		{"+/broker", "$SYS/broker", false},
		{"#", "$SYS", false},
		{"a/$x", "a/$x", true}, // '$' only special at the first level
		{"a/+", "a/$x", true},
	}
	for _, c := range cases {
		if got := MatchTopic(c.filter, c.topic); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

// matchTopicSplit is the Split-based MatchTopic, kept as the reference
// the level walk is checked against.
func matchTopicSplit(filter, topic string) bool {
	if strings.HasPrefix(topic, "$") && (strings.HasPrefix(filter, "+") || strings.HasPrefix(filter, "#")) {
		return false
	}
	fl, tl := strings.Split(filter, "/"), strings.Split(topic, "/")
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(tl) == len(fl)
}

// genMatchPair draws a filter and a topic over a small alphabet that
// hits MatchTopic's edges: "+" and "#" levels, "$" first levels, empty
// levels, and a filter "x/#" against its parent topic "x".
func genMatchPair(r *rand.Rand) (filter, topic string) {
	words := []string{"a", "b", "$SYS", "$x", ""}
	levels := func(n int, wild bool) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = words[r.Intn(len(words))]
			if wild && r.Intn(4) == 0 {
				out[i] = "+"
			}
		}
		return out
	}
	tl := levels(1+r.Intn(4), false)
	var fl []string
	if r.Intn(3) == 0 {
		// Derive the filter from the topic so matches are common.
		fl = append(fl, tl...)
		for i := range fl {
			if r.Intn(3) == 0 {
				fl[i] = "+"
			}
		}
	} else {
		fl = levels(1+r.Intn(4), true)
	}
	if r.Intn(3) == 0 {
		fl = append(fl, "#")
	}
	return strings.Join(fl, "/"), strings.Join(tl, "/")
}

// Property: the allocation-free level walk agrees with the Split-based
// reference on random filter/topic pairs.
func TestQuickMatchTopicAgreesWithSplit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			filter, topic := genMatchPair(r)
			if got, want := MatchTopic(filter, topic), matchTopicSplit(filter, topic); got != want {
				t.Logf("MatchTopic(%q, %q) = %v, reference %v", filter, topic, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchTopicAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { MatchTopic("swarm/+/status", "swarm/dev-7/status") }); n != 0 {
		t.Errorf("MatchTopic: %v allocations, want 0", n)
	}
}

func TestFiltersOverlap(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/+", "a/b", true},
		{"a/+/c", "a/b/#", true}, // both match a/b/c
		{"a/#", "b/#", false},
		{"#", "anything/at/all", true},
		{"#", "+", true},
		{"+", "a", true},
		{"+", "a/b", false}, // one level vs two
		{"a/#", "a", true},  // "a/#" matches "a" itself
		{"a/b/#", "a/b", true},
		{"a/b/#", "a", false},     // "a/b/#" can't match the single level "a"
		{"a/+/c", "+/b/+", true},  // both match a/b/c
		{"a/+/c", "+/b/d", false}, // last level differs
		{"a//b", "a/+/b", true},   // '+' matches the empty level
		// $-prefixed literal first levels never overlap wildcard first
		// levels (wildcards can't match $ topics).
		{"$SYS/x", "+/x", false},
		{"$SYS/x", "#", false},
		{"$SYS/x", "$SYS/+", true}, // literal $ level on both sides is fine
		{"$SYS/#", "$SYS/broker", true},
	}
	for _, c := range cases {
		if got := FiltersOverlap(c.a, c.b); got != c.want {
			t.Errorf("FiltersOverlap(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := FiltersOverlap(c.b, c.a); got != c.want {
			t.Errorf("FiltersOverlap(%q, %q) = %v, want %v (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}

// Property: if both filters match a common random topic, FiltersOverlap
// must report true (it may also be true for pairs whose witness topic
// the generator never produced, so only one direction is checked).
func TestQuickFiltersOverlapSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genTopic(r, true)
		b := genTopic(r, true)
		for trial := 0; trial < 20; trial++ {
			topic := genTopic(r, false)
			if MatchTopic(a, topic) && MatchTopic(b, topic) && !FiltersOverlap(a, b) {
				t.Logf("filters %q and %q both match %q but FiltersOverlap is false", a, b, topic)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// deliverySetOf copies topic's delivery set out of its pooled scratch.
func deliverySetOf(t *subTrie, topic string) []*subscription {
	sc := scratchPool.Get().(*matchScratch)
	defer sc.release()
	return slices.Clone(t.deliverySet(topic, sc))
}

func collectClients(subs []*subscription) []string {
	var out []string
	for _, s := range subs {
		out = append(out, s.clientID)
	}
	return out
}

// matchAll is the matcher route() used before deliverySet, kept as the
// oracle: every subscription whose filter matches topic, a client with
// overlapping filters appearing once per filter, in no particular order.
func (t *subTrie) matchAll(topic string) []*subscription {
	levels := strings.Split(topic, "/")
	var out []*subscription
	skipWild := strings.HasPrefix(topic, "$")
	matchAt(t.root.Load(), levels, skipWild, &out)
	return out
}

func matchAt(node *trieNode, levels []string, firstLevelNoWild bool, out *[]*subscription) {
	if len(levels) == 0 {
		*out = append(*out, node.list()...)
		// "a/#" matches "a": a child "#" at the exact end also fires.
		if hash, ok := node.children["#"]; ok {
			*out = append(*out, hash.list()...)
		}
		return
	}
	lv := levels[0]
	if child, ok := node.children[lv]; ok {
		matchAt(child, levels[1:], false, out)
	}
	if !firstLevelNoWild {
		if child, ok := node.children["+"]; ok {
			matchAt(child, levels[1:], false, out)
		}
		if child, ok := node.children["#"]; ok {
			*out = append(*out, child.list()...)
		}
	}
}

// dedupMaxQoS is the other half of the old route(): collapse a client's
// overlapping matches to its highest QoS.
func dedupMaxQoS(matches []*subscription) map[string]byte {
	perClient := map[string]byte{}
	for _, sub := range matches {
		if cur, ok := perClient[sub.clientID]; !ok || sub.qos > cur {
			perClient[sub.clientID] = sub.qos
		}
	}
	return perClient
}

func TestTrieSubscribeMatch(t *testing.T) {
	trie := newSubTrie()
	add := func(client, filter string) {
		trie.subscribe(&subscription{clientID: client, filter: filter})
	}
	add("c1", "home/+/lamp")
	add("c2", "home/#")
	add("c3", "home/kitchen/lamp")
	add("c4", "other/topic")

	got := collectClients(deliverySetOf(trie, "home/kitchen/lamp"))
	want := []string{"c1", "c2", "c3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("match = %v, want %v", got, want)
	}
	if got := collectClients(deliverySetOf(trie, "home")); fmt.Sprint(got) != "[c2]" {
		t.Errorf("parent-level # match = %v", got)
	}
	if got := deliverySetOf(trie, "nomatch"); len(got) != 0 {
		t.Errorf("unexpected matches %v", got)
	}
}

func TestTrieUnsubscribePrunes(t *testing.T) {
	trie := newSubTrie()
	trie.subscribe(&subscription{clientID: "c1", filter: "a/b/c"})
	trie.subscribe(&subscription{clientID: "c2", filter: "a/b"})
	if !trie.unsubscribe("c1", "a/b/c") {
		t.Fatal("unsubscribe failed")
	}
	if trie.unsubscribe("c1", "a/b/c") {
		t.Error("double unsubscribe should return false")
	}
	if n := trie.countSubscriptions(); n != 1 {
		t.Errorf("count = %d", n)
	}
	// The a/b/c branch must be pruned but a/b intact.
	if got := collectClients(deliverySetOf(trie, "a/b")); fmt.Sprint(got) != "[c2]" {
		t.Errorf("match after prune = %v", got)
	}
}

func TestTrieRemoveClient(t *testing.T) {
	trie := newSubTrie()
	trie.subscribe(&subscription{clientID: "c1", filter: "a/+"})
	trie.subscribe(&subscription{clientID: "c1", filter: "b/#"})
	trie.subscribe(&subscription{clientID: "c2", filter: "a/x"})
	trie.removeClient("c1")
	if n := trie.countSubscriptions(); n != 1 {
		t.Errorf("count = %d after removeClient", n)
	}
	if got := collectClients(deliverySetOf(trie, "a/x")); fmt.Sprint(got) != "[c2]" {
		t.Errorf("match = %v", got)
	}
}

func TestTrieResubscribeReplaces(t *testing.T) {
	trie := newSubTrie()
	trie.subscribe(&subscription{clientID: "c1", filter: "a", qos: 0})
	trie.subscribe(&subscription{clientID: "c1", filter: "a", qos: 1})
	subs := deliverySetOf(trie, "a")
	if len(subs) != 1 || subs[0].qos != 1 {
		t.Errorf("resubscribe did not replace: %+v", subs)
	}
}

// Property: trie matching agrees with the reference MatchTopic on
// random filters and topics.
func TestQuickTrieAgreesWithMatchTopic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trie := newSubTrie()
		filters := make([]string, 1+r.Intn(8))
		for i := range filters {
			filters[i] = genTopic(r, true)
			trie.subscribe(&subscription{
				clientID: fmt.Sprintf("c%d", i),
				filter:   filters[i],
			})
		}
		for trial := 0; trial < 10; trial++ {
			topic := genTopic(r, false)
			got := map[string]bool{}
			for _, s := range deliverySetOf(trie, topic) {
				got[s.filter] = true
			}
			for _, fl := range filters {
				want := MatchTopic(fl, topic)
				if got[fl] != want {
					t.Logf("filter %q topic %q: trie=%v ref=%v", fl, topic, got[fl], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: through random subscribe, unsubscribe and removeClient
// sequences that prune and re-add "+" and "#" leaves at several
// depths, every node's plus and hash links equal its "+" and "#"
// children, and deliverySet agrees with the matchAll oracle.
func TestTrieWildcardLinksStayInStep(t *testing.T) {
	levels := []string{"a", "b", "+"}
	genFilter := func(r *rand.Rand) string {
		parts := make([]string, r.Intn(4))
		for i := range parts {
			parts[i] = levels[r.Intn(len(levels))]
		}
		if len(parts) == 0 || r.Intn(2) == 0 {
			parts = append(parts, "#")
		}
		return strings.Join(parts, "/")
	}
	topics := []string{"a", "b", "c", "$s"}
	genTopic := func(r *rand.Rand) string {
		parts := make([]string, 1+r.Intn(4))
		for i := range parts {
			parts[i] = topics[r.Intn(len(topics))]
		}
		return strings.Join(parts, "/")
	}
	// relinked counts, per wildcard level and depth (1 for a first
	// level), the leaves that came back after being pruned.
	relinked := map[string]int{}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		trie := newSubTrie()
		live := map[string]map[string]bool{} // client -> filters
		pruned := map[string]bool{}
		before := wildcardNodes(trie.root.Load(), "")
		for step := 0; step < 60; step++ {
			client := fmt.Sprintf("c%d", r.Intn(3))
			switch op := r.Intn(10); {
			case op < 5:
				f := genFilter(r)
				trie.subscribe(&subscription{clientID: client, filter: f, qos: byte(r.Intn(2))})
				if live[client] == nil {
					live[client] = map[string]bool{}
				}
				live[client][f] = true
			case op < 9:
				f := genFilter(r)
				for held := range live[client] {
					if r.Intn(2) == 0 {
						f = held
						break
					}
				}
				if got := trie.unsubscribe(client, f); got != live[client][f] {
					t.Fatalf("seed %d: unsubscribe(%s, %q) = %v", seed, client, f, got)
				}
				delete(live[client], f)
			default:
				trie.removeClient(client)
				delete(live, client)
			}
			checkWildcardLinks(t, trie.root.Load(), "")
			after := wildcardNodes(trie.root.Load(), "")
			for path := range before {
				if !after[path] {
					pruned[path] = true
				}
			}
			for path := range after {
				if !before[path] && pruned[path] {
					lv := path[len(path)-1:]
					relinked[fmt.Sprintf("%s@%d", lv, strings.Count(path, "/"))]++
				}
			}
			before = after
			for trial := 0; trial < 3; trial++ {
				topic := genTopic(r)
				got := map[string]byte{}
				for _, sub := range deliverySetOf(trie, topic) {
					got[sub.clientID] = sub.qos
				}
				if want := dedupMaxQoS(trie.matchAll(topic)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d topic %q: deliverySet %v, matchAll %v", seed, step, topic, got, want)
				}
			}
		}
	}
	for _, lv := range []string{"+", "#"} {
		for depth := 1; depth <= 3; depth++ {
			if key := fmt.Sprintf("%s@%d", lv, depth); relinked[key] == 0 {
				t.Errorf("no %q leaf at depth %d was pruned and re-added (%v)", lv, depth, relinked)
			}
		}
	}
}

// checkWildcardLinks fails unless every node under n links exactly its
// "+" and "#" children.
func checkWildcardLinks(t *testing.T, n *trieNode, path string) {
	t.Helper()
	if n.plus != n.children["+"] || n.hash != n.children["#"] {
		t.Fatalf("node %q: plus %p hash %p, children + %p # %p", path, n.plus, n.hash, n.children["+"], n.children["#"])
	}
	for lv, child := range n.children {
		checkWildcardLinks(t, child, path+"/"+lv)
	}
}

// wildcardNodes returns the paths of every "+" and "#" node under n.
func wildcardNodes(n *trieNode, path string) map[string]bool {
	out := map[string]bool{}
	for lv, child := range n.children {
		p := path + "/" + lv
		if lv == "+" || lv == "#" {
			out[p] = true
		}
		for q := range wildcardNodes(child, p) {
			out[q] = true
		}
	}
	return out
}
