package broker

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ValidateTopicName checks a concrete topic used in PUBLISH: non-empty,
// no wildcards, no NUL, within the length limit (spec §4.7). It makes
// one pass over the bytes; a wildcard anywhere is reported before a
// NUL. Every bridge forward runs it again on the receiving shard.
func ValidateTopicName(topic string) error {
	if topic == "" {
		return fmt.Errorf("mqtt: empty topic")
	}
	if len(topic) > maxTopicLength {
		return fmt.Errorf("mqtt: topic too long (%d bytes)", len(topic))
	}
	nul := false
	for i := 0; i < len(topic); i++ {
		switch topic[i] {
		case '+', '#':
			return fmt.Errorf("mqtt: wildcards not allowed in topic name %q", topic)
		case 0:
			nul = true
		}
	}
	if nul {
		return fmt.Errorf("mqtt: NUL in topic name")
	}
	return nil
}

// ValidateTopicFilter checks a subscription filter: "+" must occupy a
// whole level; "#" must be the final level (spec §4.7.1).
func ValidateTopicFilter(filter string) error {
	if filter == "" {
		return fmt.Errorf("mqtt: empty topic filter")
	}
	if len(filter) > maxTopicLength {
		return fmt.Errorf("mqtt: filter too long (%d bytes)", len(filter))
	}
	if strings.ContainsRune(filter, 0) {
		return fmt.Errorf("mqtt: NUL in topic filter")
	}
	levels := strings.Split(filter, "/")
	for i, lv := range levels {
		switch {
		case lv == "#":
			if i != len(levels)-1 {
				return fmt.Errorf("mqtt: '#' must be the last level in %q", filter)
			}
		case lv == "+":
			// ok anywhere as a full level
		case strings.ContainsAny(lv, "+#"):
			return fmt.Errorf("mqtt: wildcard must occupy a whole level in %q", filter)
		}
	}
	return nil
}

// MatchTopic reports whether a concrete topic matches a filter,
// following MQTT semantics: "#" also matches the parent level
// ("a/#" matches "a"), and "+" matches exactly one level including the
// empty level. Topics starting with "$" are not matched by wildcards
// at the first level (spec §4.7.2). It walks both strings level by
// level, the way deliverySet does, and allocates nothing.
func MatchTopic(filter, topic string) bool {
	if strings.HasPrefix(topic, "$") && (strings.HasPrefix(filter, "+") || strings.HasPrefix(filter, "#")) {
		return false
	}
	for {
		f, frest, fmore := strings.Cut(filter, "/")
		if f == "#" {
			return true
		}
		t, trest, tmore := strings.Cut(topic, "/")
		switch {
		case f != "+" && f != t:
			return false
		case !fmore:
			return !tmore
		case !tmore:
			// "a/#" matches "a": only a final "#" may outlast the topic.
			return frest == "#"
		}
		filter, topic = frest, trest
	}
}

// FiltersOverlap reports whether two subscription filters can match a
// common concrete topic — e.g. "a/+/c" and "a/b/#" both match "a/b/c".
// The $-prefix rule carries over: a filter whose first level is a
// literal "$..." level never overlaps one starting with a wildcard,
// because wildcards at the first level cannot match "$" topics.
func FiltersOverlap(a, b string) bool {
	al := strings.Split(a, "/")
	bl := strings.Split(b, "/")
	dollar := func(l []string) bool { return strings.HasPrefix(l[0], "$") }
	wild := func(l []string) bool { return l[0] == "+" || l[0] == "#" }
	if (dollar(al) && wild(bl)) || (dollar(bl) && wild(al)) {
		return false
	}
	return overlapLevels(al, bl)
}

func overlapLevels(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	// "x/#" matches "x" itself, so an exhausted side still overlaps a
	// remainder that is exactly ["#"].
	if len(a) == 0 {
		return len(b) == 1 && b[0] == "#"
	}
	if len(b) == 0 {
		return len(a) == 1 && a[0] == "#"
	}
	if a[0] == "#" || b[0] == "#" {
		return true
	}
	if a[0] == "+" || b[0] == "+" || a[0] == b[0] {
		return overlapLevels(a[1:], b[1:])
	}
	return false
}

// subTrie indexes subscriptions by topic filter for O(levels) matching
// instead of scanning every subscription per publish. Each node maps a
// topic level to children, with the special child keys "+" and "#".
//
// A publish takes no lock and writes nothing, so publishers on two
// cores share no written line here. A published node's children never
// change: a write that adds or prunes a node path-copies, copying only
// the nodes on its path and sharing every other subtree, and stores a
// new root. A subscribe to a filter whose node exists, or an
// unsubscribe that leaves its node in use, only swaps that node's
// subscriber list, which is never changed in place either. Writers
// serialise on mu and keep seq odd while they write; a publish that
// sees seq move retries, so it sees every write whole or not at all.
type subTrie struct {
	mu   sync.Mutex    // serialises writers
	seq  atomic.Uint64 // odd while a write is under way
	root atomic.Pointer[trieNode]
}

type trieNode struct {
	children map[string]*trieNode // nil when the node has none
	// plus and hash are children["+"] and children["#"], kept in step
	// by setChild and dropChild, so a match walk looks up only the
	// concrete level in the map.
	plus, hash *trieNode
	subs       atomic.Pointer[[]*subscription] // one per client, ascending by client id
}

type subscription struct {
	clientID string
	filter   string
	qos      byte
	// deliver hands one message to the subscriber: a wire session
	// queues a packet, an in-process subscriber runs its callback.
	// span is the publish→deliver span to close, 0 when untraced.
	deliver func(m Message, span obs.SpanID)
}

func newSubTrie() *subTrie {
	t := &subTrie{}
	t.root.Store(&trieNode{})
	return t
}

// write runs one write to the trie: serialised, and with seq odd, so
// no publish keeps a delivery set read while it ran.
func (t *subTrie) write(change func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq.Add(1)
	defer t.seq.Add(1)
	change()
}

// settled waits out a write under way and returns seq. A read that
// finds seq unchanged after it saw no write.
func (t *subTrie) settled() uint64 {
	for {
		if seq := t.seq.Load(); seq&1 == 0 {
			return seq
		}
		runtime.Gosched()
	}
}

// list returns the node's subscribers.
func (n *trieNode) list() []*subscription {
	if p := n.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// setList replaces the node's subscribers with subs, a fresh slice.
func (n *trieNode) setList(subs []*subscription) {
	n.subs.Store(&subs)
}

// clone returns a copy of n that a writer may change before it
// publishes it: its own children map, every child and the subscriber
// list still shared. A nil n clones to an empty node.
func (n *trieNode) clone() *trieNode {
	c := &trieNode{}
	if n != nil {
		c.children, c.plus, c.hash = maps.Clone(n.children), n.plus, n.hash
		c.subs.Store(n.subs.Load())
	}
	return c
}

// setChild adds child under level lv. n must be an unpublished clone.
func (n *trieNode) setChild(lv string, child *trieNode) {
	if n.children == nil {
		n.children = map[string]*trieNode{}
	}
	n.children[lv] = child
	n.link(lv, child)
}

// dropChild removes the child under level lv. n must be an
// unpublished clone.
func (n *trieNode) dropChild(lv string) {
	delete(n.children, lv)
	n.link(lv, nil)
}

func (n *trieNode) link(lv string, child *trieNode) {
	switch lv {
	case "+":
		n.plus = child
	case "#":
		n.hash = child
	}
}

// empty reports whether the node holds no subscription and no child.
func (n *trieNode) empty() bool {
	return len(n.children) == 0 && len(n.list()) == 0
}

// find returns clientID's position in the node's sorted subscriber
// list and whether it is there.
func (n *trieNode) find(clientID string) (int, bool) {
	return slices.BinarySearchFunc(n.list(), clientID, func(s *subscription, id string) int {
		return strings.Compare(s.clientID, id)
	})
}

// withoutSub returns an unpublished copy of n lacking subscriber i, and
// whether the copy is empty.
func (n *trieNode) withoutSub(i int) (*trieNode, bool) {
	c := n.clone()
	subs := n.list()
	c.setList(slices.Concat(subs[:i], subs[i+1:]))
	return c, c.empty()
}

// lookup returns the node filter leads to, or nil.
func (n *trieNode) lookup(filter string) *trieNode {
	for rest, more := filter, true; more && n != nil; {
		var lv string
		lv, rest, more = strings.Cut(rest, "/")
		n = n.children[lv]
	}
	return n
}

// subscribe inserts or replaces a client's subscription to filter.
func (t *subTrie) subscribe(sub *subscription) {
	t.write(func() {
		root := t.root.Load()
		leaf := root.lookup(sub.filter)
		if leaf == nil {
			t.root.Store(subscribeAt(root, sub.filter, sub))
			return
		}
		subs := leaf.list()
		if i, ok := leaf.find(sub.clientID); ok {
			subs = slices.Clone(subs)
			subs[i] = sub
		} else {
			// Clip makes Insert copy: the old list stays as readers saw it.
			subs = slices.Insert(slices.Clip(subs), i, sub)
		}
		leaf.setList(subs)
	})
}

// subscribeAt returns an unpublished copy of node (nil: a new node) in
// which the path filter, relative to node, leads to a new node holding
// only sub.
func subscribeAt(node *trieNode, filter string, sub *subscription) *trieNode {
	n := node.clone()
	lv, rest, more := strings.Cut(filter, "/")
	var child *trieNode
	if more {
		child = subscribeAt(n.children[lv], rest, sub)
	} else {
		child = &trieNode{}
		child.setList([]*subscription{sub})
	}
	n.setChild(lv, child)
	return n
}

// unsubscribe removes a client's subscription to filter, pruning empty
// branches. It reports whether the subscription existed.
func (t *subTrie) unsubscribe(clientID, filter string) bool {
	var removed bool
	t.write(func() {
		root := t.root.Load()
		leaf := root.lookup(filter)
		if leaf == nil {
			return
		}
		i, ok := leaf.find(clientID)
		if !ok {
			return
		}
		removed = true
		if subs := leaf.list(); len(subs) > 1 || len(leaf.children) > 0 {
			leaf.setList(slices.Concat(subs[:i], subs[i+1:]))
			return
		}
		// The leaf empties: prune it, and every node left empty above it.
		root, _ = unsubscribeAt(root, filter, clientID)
		t.root.Store(root)
	})
	return removed
}

// unsubscribeAt returns an unpublished copy of node without clientID's
// subscription at filter, a path relative to node, and whether the
// copy is empty. It returns nil when the subscription is not there.
func unsubscribeAt(node *trieNode, filter, clientID string) (*trieNode, bool) {
	lv, rest, more := strings.Cut(filter, "/")
	child, ok := node.children[lv]
	if !ok {
		return nil, false
	}
	var next *trieNode
	var empty bool
	if more {
		next, empty = unsubscribeAt(child, rest, clientID)
	} else if i, ok := child.find(clientID); ok {
		next, empty = child.withoutSub(i)
	}
	if next == nil {
		return nil, false
	}
	n := node.clone()
	if empty {
		n.dropChild(lv)
	} else {
		n.setChild(lv, next)
	}
	return n, n.empty()
}

// removeClient drops every subscription held by a client (on clean
// disconnect) and returns the removed filters so callers can fire
// unsubscribe hooks for each.
func (t *subTrie) removeClient(clientID string) []string {
	var removed []string
	t.write(func() {
		if root := pruneClient(t.root.Load(), clientID, &removed); root != nil {
			t.root.Store(root)
		}
	})
	return removed
}

// pruneClient returns an unpublished copy of node without any of
// clientID's subscriptions beneath it, copying only the nodes that lose
// one or lead to one that does. It returns nil when nothing beneath
// node is clientID's.
func pruneClient(node *trieNode, clientID string, removed *[]string) *trieNode {
	var n *trieNode
	if i, ok := node.find(clientID); ok {
		*removed = append(*removed, node.list()[i].filter)
		n, _ = node.withoutSub(i)
	}
	for lv, child := range node.children {
		next := pruneClient(child, clientID, removed)
		if next == nil {
			continue
		}
		if n == nil {
			n = node.clone()
		}
		if next.empty() {
			n.dropChild(lv)
		} else {
			n.setChild(lv, next)
		}
	}
	return n
}

// matchScratch is one publish's working memory, pooled so matching
// allocates nothing: lists holds the subscriber lists of the matched
// nodes, out the delivery set merged from them.
type matchScratch struct {
	lists [][]*subscription
	out   []*subscription
}

var scratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// release returns sc to the pool holding no subscription, so an idle
// scratch cannot keep a departed session alive.
func (sc *matchScratch) release() {
	clear(sc.lists)
	clear(sc.out)
	scratchPool.Put(sc)
}

// deliverySet returns who receives a publish to topic: one subscription
// per client — the highest-QoS one where overlapping filters match, the
// MQTT overlapping-subscription rule — ascending by client id. The
// result lives in sc and is valid until sc.release.
func (t *subTrie) deliverySet(topic string, sc *matchScratch) []*subscription {
	var lists [][]*subscription
	for {
		seq := t.settled()
		lists = gather(t.root.Load(), topic, !strings.HasPrefix(topic, "$"), sc.lists[:0])
		if t.seq.Load() == seq {
			break
		}
	}
	out := sc.out[:0]
	// k-way merge of the sorted lists; k is the handful of matched nodes.
	for {
		var best *subscription
		for _, l := range lists {
			if len(l) == 0 {
				continue
			}
			if best == nil {
				best = l[0]
			} else if c := strings.Compare(l[0].clientID, best.clientID); c < 0 || c == 0 && l[0].qos > best.qos {
				best = l[0]
			}
		}
		if best == nil {
			break
		}
		out = append(out, best)
		for i, l := range lists {
			if len(l) > 0 && l[0].clientID == best.clientID {
				lists[i] = l[1:]
			}
		}
	}
	sc.lists, sc.out = lists, out
	return out
}

// gather appends the subscriber list of every node whose filter matches
// the topic levels in rest, with one map lookup per level. wild is false
// only at the first level of a "$" topic, which wildcards do not match
// (spec §4.7.2).
func gather(node *trieNode, rest string, wild bool, lists [][]*subscription) [][]*subscription {
	lv, rest, more := strings.Cut(rest, "/")
	kids := [2]*trieNode{node.children[lv]}
	if wild {
		kids[1] = node.plus
		if node.hash != nil {
			lists = append(lists, node.hash.list())
		}
	}
	for _, child := range kids {
		switch {
		case child == nil:
		case more:
			lists = gather(child, rest, true, lists)
		default:
			lists = append(lists, child.list())
			// "a/#" matches "a": a child "#" at the exact end also fires.
			if child.hash != nil {
				lists = append(lists, child.hash.list())
			}
		}
	}
	return lists
}

// countSubscriptions returns the total number of stored subscriptions
// (used by tests and broker stats).
func (t *subTrie) countSubscriptions() int {
	for {
		seq := t.settled()
		n := countAt(t.root.Load())
		if t.seq.Load() == seq {
			return n
		}
	}
}

func countAt(node *trieNode) int {
	n := len(node.list())
	for _, c := range node.children {
		n += countAt(c)
	}
	return n
}
