// RAII TCP socket wrappers (IPv4).
//
// Thin, exception-reporting layer over the BSD socket API: a move-only file
// descriptor, a connected stream with send_all/recv_all, and a listener.
// TCP_NODELAY is enabled on every stream — the wire protocol already batches
// into large framed messages, so Nagle coalescing only adds latency.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace emlio::net {

/// Move-only owned file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Close now (idempotent).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Fd fd);

  /// Connect to host:port. `host` may be a hostname or an IPv4 literal —
  /// resolution goes through getaddrinfo and every candidate address is
  /// tried. Throws std::runtime_error on resolution or connect failure.
  static TcpStream connect(const std::string& host, std::uint16_t port);

  /// Write the entire span; throws on error/EOF.
  void send_all(std::span<const std::uint8_t> bytes);

  /// Write every byte of `iov`, in order, as scatter-gather sendmsg calls
  /// (MSG_NOSIGNAL) of at most IOV_MAX entries each — no join copy, so a
  /// frame of fewer than IOV_MAX pieces normally costs a single kernel
  /// crossing. Resumes after a partial write inside any entry by advancing
  /// `iov` in place (its contents are consumed). Throws on error. Returns
  /// the number of byte-moving syscalls issued, which feeds the transport
  /// syscall audit (MessageSink::data_syscalls).
  std::size_t sendv_all(std::span<iovec> iov);

  /// Read exactly bytes.size() bytes. Returns false on clean EOF at a
  /// message boundary (0 bytes read so far); throws on mid-read EOF/error.
  bool recv_all(std::span<std::uint8_t> bytes);

  /// Half-close the write side so the peer sees EOF after draining.
  void shutdown_send() noexcept;

  bool valid() const noexcept { return fd_.valid(); }
  int native_handle() const noexcept { return fd_.get(); }

 private:
  Fd fd_;
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Bind and listen on loopback:port. Port 0 picks an ephemeral port.
  explicit TcpListener(std::uint16_t port, int backlog = 64);

  /// The actually bound port (useful with port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Accept one connection; empty optional if the listener was closed.
  std::optional<TcpStream> accept();

  /// Unblock any concurrently blocked accept() (via shutdown) and mark the
  /// listener closed. The descriptor itself is released by the destructor —
  /// the owner must join its accept thread before destroying the listener.
  /// Idempotent, safe to call while accept() runs on another thread.
  void close() noexcept;

  bool valid() const noexcept {
    return fd_.valid() && !closed_.load(std::memory_order_acquire);
  }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace emlio::net
