package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aprof"
	"aprof/internal/cluster"
	"aprof/internal/obs"
	"aprof/internal/replica"
	"aprof/internal/repo"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
	"aprof/internal/server/client"
)

// clusterNodes is the cluster size; replicas is the checkpoint copy count,
// as in the three-node quickstart with -replicate-peers.
const (
	clusterNodes = 3
	replicas     = 2
)

// Fixed loopback ports keep the hash ring, and with it which node owns
// which session, the same on every run. A busy port falls back to an
// ephemeral one.
const (
	ingestPortBase = 47160
	httpPortBase   = 47170
)

type clusterOptions struct {
	dir string
	// memStore keeps each node's profile repository in memory instead of
	// under dir.
	memStore bool
	// prefill runs on each node's repository before the node starts.
	prefill func(*repo.Repository) error
	// rec, when non-nil, wraps the replica service, the store backend and
	// the /profiles/ handler of every node and the client's connections,
	// and passes each node's registry to the profiler configuration.
	rec *recorder
	// loopOf names the measurement loop a node-side span belongs to.
	loopOf func(span string) string
}

type node struct {
	addr     string
	httpAddr string
	reg      *obs.Registry
	store    *repo.Repository
	replica  *replica.Node
	srv      *server.Server
	web      *http.Server
}

// benchCluster is three in-process aprofd nodes wired like cmd/aprofd with
// -store, -replicate-peers and -cluster-peers.
type benchCluster struct {
	opts  clusterOptions
	nodes []*node
	addrs []string
	http  *http.Client

	// Counters of the traced wrappers.
	replicates, ckptBytes       atomic.Int64
	saves, snapshots, snapBytes atomic.Int64
	loads, requests             atomic.Int64
	wireBytes                   atomic.Int64
}

func listenLoopback(port int) (net.Listener, error) {
	if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
		return ln, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

func startCluster(opts clusterOptions) (*benchCluster, error) {
	c := &benchCluster{opts: opts, http: &http.Client{Timeout: 30 * time.Second}}
	var lns, webLns []net.Listener
	closeAll := func() {
		for _, l := range append(lns, webLns...) {
			l.Close()
		}
	}
	for i := 0; i < clusterNodes; i++ {
		ln, err := listenLoopback(ingestPortBase + i)
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
		web, err := listenLoopback(httpPortBase + i)
		if err != nil {
			closeAll()
			return nil, err
		}
		webLns = append(webLns, web)
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	for i := 0; i < clusterNodes; i++ {
		n, err := c.startNode(i, lns[i], webLns)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			for _, l := range webLns[i:] {
				l.Close()
			}
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func (c *benchCluster) startNode(i int, ln net.Listener, webLns []net.Listener) (*node, error) {
	dir := filepath.Join(c.opts.dir, fmt.Sprintf("node%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &node{addr: c.addrs[i], httpAddr: webLns[i].Addr().String(), reg: obs.NewRegistry()}
	var be backend.Backend
	replicaDir := filepath.Join(dir, "store", "replica") // aprofd's default
	if c.opts.memStore {
		be = newMemBackend()
		replicaDir = filepath.Join(dir, "replica")
	} else {
		local, err := backend.OpenLocal(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		be = local
	}
	if c.opts.rec != nil {
		be = &tracedBackend{Backend: be, c: c}
	}
	store, err := repo.OpenOrInit(be, repo.Options{Obs: n.reg})
	if err != nil {
		return nil, err
	}
	n.store = store
	if c.opts.prefill != nil {
		if err := c.opts.prefill(store); err != nil {
			store.Close()
			return nil, err
		}
	}
	rn, err := replica.NewNode(replica.Options{
		Self:     n.addr,
		Peers:    c.addrs,
		Replicas: replicas,
		Dir:      replicaDir,
		Backend:  be,
		Obs:      n.reg,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	n.replica = rn
	var rs server.ReplicaService = rn
	cfg := aprof.DefaultConfig()
	if c.opts.rec != nil {
		rs = &tracedReplica{Node: rn, c: c}
		// cmd/aprofd leaves Config.Obs nil; only the traced run publishes
		// the pipeline's decode and profile histograms.
		cfg.Obs = n.reg
	}
	n.srv = server.New(server.Options{Store: store, Config: cfg, Replica: rs, Obs: n.reg})
	n.srv.Serve(ln)

	var peers []string
	for j, l := range webLns {
		if j != i {
			peers = append(peers, l.Addr().String())
		}
	}
	var profiles http.Handler = cluster.NewFanout(n.srv, peers, 0).Handler()
	if c.opts.rec != nil {
		profiles = c.tracedHandler(profiles)
	}
	mux := http.NewServeMux()
	mux.Handle("/profiles/", profiles)
	n.web = &http.Server{Handler: mux}
	go n.web.Serve(webLns[i])
	return n, nil
}

// close stops every node and removes the cluster's data.
func (c *benchCluster) close() error {
	var errs []error
	for _, n := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, n.srv.Shutdown(ctx))
		cancel()
		errs = append(errs, n.web.Close(), n.replica.Close(), n.store.Close())
	}
	c.http.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(c.opts.dir))
	return errors.Join(errs...)
}

// ingest uploads one trace the way aprofsend -cluster does and returns the
// client's result and the index of the node that completed the session.
func (c *benchCluster) ingest(ctx context.Context, id string, data []byte, suppressed bool, loop string) (client.Result, int, error) {
	co := client.ClusterOptions{Nodes: c.addrs, SessionID: id}
	if c.opts.rec != nil {
		co.DialNode = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &tracedConn{Conn: conn, c: c, session: id, loop: loop}, nil
		}
	}
	cd, err := client.NewClusterDialer(co)
	if err != nil {
		return client.Result{}, 0, err
	}
	res, err := client.Run(ctx, client.Options{
		SessionID:  id,
		Suppressed: suppressed,
		Open:       func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil },
		Dialer:     cd,
	})
	node := 0
	for i, a := range c.addrs {
		if a == cd.Node() {
			node = i
		}
	}
	return res, node, err
}

// get fetches one profile through a node's /profiles/ handler into buf,
// which the caller reuses so that reading adds no garbage of its own. The
// returned body aliases buf.
func (c *benchCluster) get(node int, id string, buf *bytes.Buffer) ([]byte, int, error) {
	resp, err := c.http.Get("http://" + c.nodes[node].httpAddr + "/profiles/" + id)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return buf.Bytes(), resp.StatusCode, err
}

// storedProfile finds a session in any node's repository.
func (c *benchCluster) storedProfile(id string) ([]byte, bool) {
	for _, n := range c.nodes {
		if doc, err := n.store.GetSession(id); err == nil {
			return doc, true
		}
	}
	return nil, false
}

// check runs repo.Check on every node.
func (c *benchCluster) check() []string {
	var problems []string
	for i, n := range c.nodes {
		rep := n.store.Check()
		for _, e := range rep.Errors {
			problems = append(problems, fmt.Sprintf("node %d: repo check: %s", i, e))
		}
		for _, w := range rep.Warnings {
			problems = append(problems, fmt.Sprintf("node %d: repo check warning: %s", i, w))
		}
	}
	return problems
}

// counter sums one obs counter over the nodes.
func (c *benchCluster) counter(scope, name string) uint64 {
	var total uint64
	for _, n := range c.nodes {
		if s := n.reg.Snapshot().Scope(scope); s != nil {
			total += s.Counter(name)
		}
	}
	return total
}

// histSum sums one obs histogram's observations over the nodes.
func (c *benchCluster) histSum(scope, name string) uint64 {
	var total uint64
	for _, n := range c.nodes {
		if s := n.reg.Snapshot().Scope(scope); s != nil {
			if h := s.Histogram(name); h != nil {
				total += h.Sum
			}
		}
	}
	return total
}

func (c *benchCluster) loop(span string) string {
	if c.opts.loopOf == nil {
		return "main"
	}
	return c.opts.loopOf(span)
}

// tracedReplica times the replica service calls each node makes.
type tracedReplica struct {
	*replica.Node
	c *benchCluster
}

func (t *tracedReplica) Replicate(session string, seq uint64, data []byte) error {
	t0 := time.Now()
	err := t.Node.Replicate(session, seq, data)
	t.c.opts.rec.add("replica.replicate", t.c.loop("replica.replicate"), nodeLevel, session, t0, time.Now())
	t.c.replicates.Add(1)
	t.c.ckptBytes.Add(int64(len(data)))
	return err
}

func (t *tracedReplica) Recover(session string) (uint64, []byte, error) {
	t0 := time.Now()
	seq, data, err := t.Node.Recover(session)
	t.c.opts.rec.add("replica.recover", t.c.loop("replica.recover"), nodeLevel, session, t0, time.Now())
	return seq, data, err
}

func (t *tracedReplica) Drop(session string) {
	t0 := time.Now()
	t.Node.Drop(session)
	t.c.opts.rec.add("replica.drop", t.c.loop("replica.drop"), nodeLevel, session, t0, time.Now())
}

// tracedBackend times the store's backend operations.
type tracedBackend struct {
	backend.Backend
	c *benchCluster
}

func (t *tracedBackend) Save(h backend.Handle, data []byte) error {
	t0 := time.Now()
	err := t.Backend.Save(h, data)
	t.c.opts.rec.add("repo.save", t.c.loop("repo.save"), storeLevel, "", t0, time.Now())
	t.c.saves.Add(1)
	if h.Type == backend.SnapshotType {
		t.c.snapshots.Add(1)
		t.c.snapBytes.Add(int64(len(data)))
	}
	return err
}

func (t *tracedBackend) Load(h backend.Handle) ([]byte, error) {
	t0 := time.Now()
	data, err := t.Backend.Load(h)
	t.c.opts.rec.add("repo.load", t.c.loop("repo.load"), storeLevel, "", t0, time.Now())
	t.c.loads.Add(1)
	return data, err
}

func (t *tracedBackend) Remove(h backend.Handle) error {
	t0 := time.Now()
	err := t.Backend.Remove(h)
	t.c.opts.rec.add("repo.remove", t.c.loop("repo.remove"), storeLevel, "", t0, time.Now())
	return err
}

// tracedHandler counts and times requests at a node's /profiles/ mux.
func (c *benchCluster) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		c.opts.rec.add("cluster.serve", c.loop("cluster.serve"), nodeLevel, "", t0, time.Now())
	})
}

// tracedConn times the client's writes: a write blocks while the node is
// not reading.
type tracedConn struct {
	net.Conn
	c       *benchCluster
	session string
	loop    string
}

func (t *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.Conn.Write(p)
	t.c.opts.rec.add("wire.write", t.loop, clientLevel, t.session, t0, time.Now())
	t.c.wireBytes.Add(int64(n))
	return n, err
}

// memBackend is an in-memory backend.Backend: the store's work without the
// filesystem.
type memBackend struct {
	mu   sync.Mutex
	objs map[backend.Type]map[string][]byte
}

func newMemBackend() *memBackend {
	return &memBackend{objs: map[backend.Type]map[string][]byte{}}
}

func (m *memBackend) Save(h backend.Handle, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.objs[h.Type] == nil {
		m.objs[h.Type] = map[string][]byte{}
	}
	m.objs[h.Type][h.Name] = append([]byte(nil), data...)
	return nil
}

func (m *memBackend) Load(h backend.Handle) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.objs[h.Type][h.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", backend.ErrNotFound, h)
	}
	// A copy, as a file read returns fresh bytes.
	return append([]byte(nil), data...), nil
}

func (m *memBackend) List(t backend.Type) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.objs[t]))
	for n := range m.objs[t] {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *memBackend) Remove(h backend.Handle) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[h.Type][h.Name]; !ok {
		return fmt.Errorf("%w: %s", backend.ErrNotFound, h)
	}
	delete(m.objs[h.Type], h.Name)
	return nil
}
