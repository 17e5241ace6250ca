package broker

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/obs"
)

// ValidateTopicName checks a concrete topic used in PUBLISH: non-empty,
// no wildcards, no NUL, within the length limit (spec §4.7).
func ValidateTopicName(topic string) error {
	if topic == "" {
		return fmt.Errorf("mqtt: empty topic")
	}
	if len(topic) > maxTopicLength {
		return fmt.Errorf("mqtt: topic too long (%d bytes)", len(topic))
	}
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("mqtt: wildcards not allowed in topic name %q", topic)
	}
	if strings.ContainsRune(topic, 0) {
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
type subTrie struct {
	mu   sync.RWMutex
	root *trieNode
}

type trieNode struct {
	children map[string]*trieNode
	// plus and hash are children["+"] and children["#"], kept in step
	// by setChild and dropChild, so a match walk looks up only the
	// concrete level in the map.
	plus, hash *trieNode
	subs       []*subscription // one per client, ascending by client id
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
	return &subTrie{root: newTrieNode()}
}

func newTrieNode() *trieNode {
	return &trieNode{children: map[string]*trieNode{}}
}

// setChild adds child under level lv.
func (n *trieNode) setChild(lv string, child *trieNode) {
	n.children[lv] = child
	n.link(lv, child)
}

// dropChild removes the child under level lv.
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
	return len(n.children) == 0 && len(n.subs) == 0
}

// find returns clientID's position in the node's sorted subscriber
// list and whether it is there.
func (n *trieNode) find(clientID string) (int, bool) {
	return slices.BinarySearchFunc(n.subs, clientID, func(s *subscription, id string) int {
		return strings.Compare(s.clientID, id)
	})
}

// subscribe inserts or replaces a client's subscription to filter.
func (t *subTrie) subscribe(sub *subscription) {
	t.mu.Lock()
	defer t.mu.Unlock()
	node := t.root
	for rest, more := sub.filter, true; more; {
		var lv string
		lv, rest, more = strings.Cut(rest, "/")
		next, ok := node.children[lv]
		if !ok {
			next = newTrieNode()
			node.setChild(lv, next)
		}
		node = next
	}
	if i, ok := node.find(sub.clientID); ok {
		node.subs[i] = sub
	} else {
		node.subs = slices.Insert(node.subs, i, sub)
	}
}

// unsubscribe removes a client's subscription to filter, pruning empty
// branches. It reports whether the subscription existed.
func (t *subTrie) unsubscribe(clientID, filter string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return unsubscribeAt(t.root, filter, clientID)
}

// unsubscribeAt removes clientID from the node that filter, a path
// relative to node, leads to.
func unsubscribeAt(node *trieNode, filter, clientID string) bool {
	lv, rest, more := strings.Cut(filter, "/")
	child, ok := node.children[lv]
	if !ok {
		return false
	}
	var removed bool
	if more {
		removed = unsubscribeAt(child, rest, clientID)
	} else if i, ok := child.find(clientID); ok {
		child.subs = slices.Delete(child.subs, i, i+1)
		removed = true
	}
	if removed && child.empty() {
		node.dropChild(lv)
	}
	return removed
}

// removeClient drops every subscription held by a client (on clean
// disconnect) and returns the removed filters so callers can fire
// unsubscribe hooks for each.
func (t *subTrie) removeClient(clientID string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []string
	pruneClient(t.root, clientID, &removed)
	return removed
}

func pruneClient(node *trieNode, clientID string, removed *[]string) {
	if i, ok := node.find(clientID); ok {
		*removed = append(*removed, node.subs[i].filter)
		node.subs = slices.Delete(node.subs, i, i+1)
	}
	for lv, child := range node.children {
		pruneClient(child, clientID, removed)
		if child.empty() {
			node.dropChild(lv)
		}
	}
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	lists := gather(t.root, topic, !strings.HasPrefix(topic, "$"), sc.lists[:0])
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
			lists = append(lists, node.hash.subs)
		}
	}
	for _, child := range kids {
		switch {
		case child == nil:
		case more:
			lists = gather(child, rest, true, lists)
		default:
			lists = append(lists, child.subs)
			// "a/#" matches "a": a child "#" at the exact end also fires.
			if child.hash != nil {
				lists = append(lists, child.hash.subs)
			}
		}
	}
	return lists
}

// countSubscriptions returns the total number of stored subscriptions
// (used by tests and broker stats).
func (t *subTrie) countSubscriptions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return countAt(t.root)
}

func countAt(node *trieNode) int {
	n := len(node.subs)
	for _, c := range node.children {
		n += countAt(c)
	}
	return n
}
