// Length-prefixed message framing over a TcpStream.
//
//   uint32  magic  (0x454D4C31, "EML1") — catches protocol mismatches
//   uint32  length (little-endian)
//   byte    payload[length]
//
// One framed message carries one msgpack-serialized batch; the 1 GiB size
// cap rejects corrupt lengths before allocation. On the wire a frame is the
// same whether its payload was sent contiguous or spliced: the sender
// gathers header, head pieces and spliced samples into one iovec list.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/payload.h"
#include "net/socket.h"

namespace emlio::net {

inline constexpr std::uint32_t kFrameMagic = 0x454D4C31;  // "EML1"
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;  // 1 GiB sanity cap
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Validate a frame header and return the payload length it announces. This
/// is the pure half of recv_frame — the decision point that stands between
/// attacker-controlled bytes and a payload allocation — factored out so it
/// can be driven directly with adversarial headers (fuzz/fuzz_framing.cpp).
/// Throws std::runtime_error on short input, bad magic, or a length above
/// the 1 GiB cap.
std::uint32_t parse_frame_header(std::span<const std::uint8_t> header);

/// Write one framed message as one scatter-gather sendmsg: the 8-byte
/// header, then the message's head pieces and splices in wire order — no
/// join copy, no separate header write; the bytes go straight from the head
/// buffer and the spliced samples' storage to the kernel. `iov` is the
/// caller's per-stream scratch, so a warm stream builds its gather list
/// without allocating. Returns the number of byte-moving syscalls issued —
/// 1 per frame of fewer than IOV_MAX pieces unless the kernel took it in
/// pieces — for the transport syscall audit. Throws on socket errors.
std::size_t send_frame(TcpStream& stream, const SplicedPayload& message,
                       std::vector<iovec>& iov);

/// send_frame for a contiguous payload: header and payload as two iovecs of
/// one sendmsg. (A Payload converts to the span implicitly.)
std::size_t send_frame(TcpStream& stream, std::span<const std::uint8_t> payload);

/// Read one framed message into a ref-counted Payload; empty optional on
/// clean EOF. This is the data plane's single receive-side copy (kernel →
/// user buffer); everything downstream shares the returned Payload. When
/// `pool` is given the buffer is pooled storage of exactly the frame's
/// length, not zero-filled first (BufferPool::acquire_for_overwrite — the
/// read overwrites every byte, and a failed read discards the buffer), that
/// recycles once the last reference (including decoded sample views) drops.
/// Throws std::runtime_error on bad magic, oversized frame, or socket error.
std::optional<Payload> recv_frame(TcpStream& stream, BufferPool* pool = nullptr);

}  // namespace emlio::net
